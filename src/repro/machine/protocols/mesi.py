"""Snooping MESI on a shared bus.

Processor events (PrRd miss, PrWr) drive the classic four-state machine
through :attr:`MESIProtocol.table`; every transition that needs other
caches' attention becomes one bus transaction (BusRd, BusRdX, BusUpgr)
serialised by :class:`~repro.machine.bus.SnoopBus`.  The snoop side of
each transaction (DESIGN.md §8) is exercised cell-by-cell by
``tests/machine/test_protocol_litmus.py``, and every reachable state of
small machines by ``tests/machine/test_protocol_explore.py``.

Cost model (cycles):

* BusRd / BusRdX occupy the bus for ``bus_cycle + line_words`` (address
  phase + one data beat per word); BusUpgr is address-only
  (``bus_cycle``).
* A dirty remote copy supplies the line cache-to-cache for
  ``4*line_words + n_pes + 1`` cycles (SNIPPETS.md #3: flush + snoop
  resolution across ``n_pes`` caches); the owner downgrades M→S
  (BusRd, with a sharing writeback) or flushes to invalid (BusRdX).
* Otherwise memory supplies the line at the machine's normal fill
  latency (including the fault-injection network hooks for remote
  homes).
* Requester latency = arbitration stall + address phase + supply;
  writes add the ``write_local`` store-buffer cost.
"""

from __future__ import annotations

from ..bus import SnoopBus
from .base import E, M, S, CoherenceProtocol

#: bus op -> the requester's PEStats counter
_OP_STAT = {"busrd": "bus_rd", "busrdx": "bus_rdx", "busupgr": "bus_upgr"}


class MESIProtocol(CoherenceProtocol):
    kind = "mesi"
    #: table[state] = (PrRd miss, PrWr); a BusRd finding other live
    #: copies enters S instead of E.
    table = (
        ((E, "busrd", True), (M, "busrdx", True)),  # I
        (None, (M, "busupgr", False)),               # S
        (None, (M, None, False)),                    # E: silent upgrade
        (None, (M, None, False)),                    # M: owner write
    )

    def __init__(self, machine) -> None:
        super().__init__(machine)
        self.bus = SnoopBus(machine.params.bus_cycle)

    def _transact(self, pe_id, line, owner, clock, nxt, op, data):
        pe = self.pes[pe_id]
        params = self.params
        if data:
            self._retire(pe_id, line)
        others = self._live_others(pe_id, line)
        _, stall = self.bus.acquire(
            clock, params.bus_cycle + self.lw if data else params.bus_cycle)
        cost = stall + params.bus_cycle
        c2c = 0
        s = line % self.nl
        dirty = next((q for q in others if self.st[q][s] & 3 == M), None)
        if data:
            if dirty is not None:
                pe.stats.c2c_transfers += 1
                c2c = 1
                cost += 4 * self.lw + self.n_pes + 1
            else:
                supply = self.machine.read_latency(pe_id, owner)
                if owner != pe_id:
                    supply = self.machine.memory.remote_latency(pe_id, supply)
                cost += supply
        count = 0
        if nxt == M:
            # BusRdX / BusUpgr: every other copy dies.
            count = self._invalidate_copies(line, ~(1 << pe_id))
        elif dirty is not None:
            # BusRd snooped by the modified owner: sharing writeback.
            self.st[dirty][s] = line << 2 | S
            self._emit_wb(dirty, line, "downgrade")
        else:
            for q in others:
                if self.st[q][s] & 3 == E:
                    self.st[q][s] = line << 2 | S
        self._set(pe_id, line, S if others and nxt != M else nxt)
        stats = pe.stats
        attr = _OP_STAT[op]
        setattr(stats, attr, getattr(stats, attr) + 1)
        stats.bus_stall_cycles += stall
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(("bus_tx", pe_id, op, line, c2c))
        self._account_inval(pe_id, line, count)
        return cost


__all__ = ["MESIProtocol"]

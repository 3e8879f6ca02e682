"""Shared machinery for the hardware coherence protocols.

Layering contract (see DESIGN.md §8): the protocol does **not** own the
data.  The machine's value plane stays write-through — every shared
write updates memory immediately, so memory is always current and the
per-word version counters / shadow oracle work unchanged.  On top of
that, the protocol keeps a *nominal* line-state table per PE (M/E/S/I
for MESI; I/S/M for a directory's local view), physically invalidates
remote copies when a write requires it (which is what makes these
schemes coherent — a remote reader can only miss to fresh memory), and
computes the latency of each miss/write from its transaction model.

State reconciliation: lines can vanish from a cache behind the
protocol's back — eviction-storm faults, victim replacement by a plane
reset, explicit invalidation.  Losing a copy is always *safe* here
(write-through means no data is lost), so the protocol lazily
reconciles: :meth:`CoherenceProtocol._state` answers ``I`` and drops
the stale table entry whenever the physical tag no longer matches.
The inverse cannot happen — every physical install of a shared line
under a protocol version goes through the protocol first.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set


class CoherenceProtocol:
    """Base class: per-PE line-state tables + holder tracking."""

    kind = "base"

    def __init__(self, machine) -> None:
        self.machine = machine
        self.params = machine.params
        self.n_pes = machine.params.n_pes
        self.lw = machine.params.line_words
        #: per-PE ``{line_addr: state}`` for lines this PE may hold.
        self.states: List[Dict[int, str]] = [{} for _ in range(self.n_pes)]
        #: line_addr -> set of PEs whose table has an entry for it
        #: (a superset of the live copies; avoids O(n_pes) scans).
        self.holders: Dict[int, Set[int]] = {}
        #: parallel-phase counter, bumped at each barrier (dir-pp).
        self.phase = 0

    # -- state table ----------------------------------------------------
    def _present(self, pe_id: int, line_addr: int) -> bool:
        cache = self.machine.pes[pe_id].cache
        return int(cache.tags[line_addr % cache.n_lines]) == line_addr

    def _drop(self, pe_id: int, line_addr: int) -> None:
        self.states[pe_id].pop(line_addr, None)
        held = self.holders.get(line_addr)
        if held is not None:
            held.discard(pe_id)
            if not held:
                del self.holders[line_addr]

    def _state(self, pe_id: int, line_addr: int) -> str:
        state = self.states[pe_id].get(line_addr)
        if state is None:
            return "I"
        if not self._present(pe_id, line_addr):
            self._drop(pe_id, line_addr)
            return "I"
        return state

    def state(self, pe_id: int, line_addr: int) -> str:
        """This PE's (reconciled) protocol state for one line."""
        return self._state(pe_id, line_addr)

    def _set_state(self, pe_id: int, line_addr: int, state: str) -> None:
        self.states[pe_id][line_addr] = state
        self.holders.setdefault(line_addr, set()).add(pe_id)

    def _live_others(self, pe_id: int, line_addr: int) -> List[int]:
        """Other PEs with a live copy, in PE order (deterministic)."""
        return [q for q in sorted(self.holders.get(line_addr, ()))
                if q != pe_id and self._state(q, line_addr) != "I"]

    # -- shared transitions ---------------------------------------------
    def _emit_wb(self, pe_id: int, line_addr: int, reason: str) -> None:
        """Account one (nominal) writeback of a modified line."""
        self.machine.pes[pe_id].stats.writebacks += 1
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(("coh_wb", pe_id, line_addr, reason))

    def _evict_victim(self, pe_id: int, line_addr: int) -> None:
        """Retire the line the upcoming install will replace, if any."""
        cache = self.machine.pes[pe_id].cache
        victim = int(cache.tags[line_addr % cache.n_lines])
        if victim < 0 or victim == line_addr:
            return
        state = self.states[pe_id].get(victim)
        if state is not None:
            if state == "M":
                self._emit_wb(pe_id, victim, "evict")
            self._drop(pe_id, victim)

    def _invalidate_copies(self, writer: int, line_addr: int,
                           targets) -> int:
        """Physically invalidate every live copy among ``targets``.

        Modified copies are flushed (one ``coh_wb`` each).  Returns the
        number of copies actually killed; the caller accounts them to
        the writer (``coh_invalidations`` / one ``coh_inval`` event)."""
        count = 0
        for q in targets:
            state = self._state(q, line_addr)
            if state == "I":
                continue
            if state == "M":
                self._emit_wb(q, line_addr, "evict")
            self.machine.pes[q].cache.invalidate_line(line_addr)
            self._drop(q, line_addr)
            count += 1
        return count

    def _account_inval(self, writer: int, line_addr: int, count: int) -> None:
        if count <= 0:
            return
        self.machine.pes[writer].stats.coh_invalidations += count
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(("coh_inval", writer, line_addr, count))

    # -- hooks the machine calls ----------------------------------------
    def read_miss(self, pe_id: int, name: str, flat: int, line_addr: int,
                  owner: int) -> float:
        """Latency of a demand read miss on a shared line.  The caller
        installs the line afterwards; the protocol records the new
        state (and retires the victim) here."""
        raise NotImplementedError

    def write(self, pe_id: int, name: str, flat: int, line_addr: int,
              owner: int, cacheable: bool = True) -> float:
        """Latency of a shared write (memory is already updated)."""
        raise NotImplementedError

    def on_barrier(self) -> None:
        self.phase += 1

    def reset(self) -> None:
        """Restore the exact post-construction state."""
        for table in self.states:
            table.clear()
        self.holders.clear()
        self.phase = 0


__all__ = ["CoherenceProtocol"]

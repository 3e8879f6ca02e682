"""Home-node directory coherence: full-map, limited-pointer, and
phase-priority request ordering.

Every line has a *home* PE (the home of its first-touched word, cached
per line — deterministic because the reference path replays accesses in
one fixed order).  The home's directory entry records the sharer set
(a PE bitmask), the owning PE while the line is dirty, and — in the
limited-pointer variant — a broadcast bit that replaces precise sharers
once more than ``dir_ptr_limit`` PEs hold the line.  One transition
table (:attr:`DirectoryProtocol.table`) serves all three variants; the
variants are parameters of it.

Message cost between PEs ``p`` and ``q`` is
``dir_msg_base + remote_per_hop * hops(p, q)``; the home controller
serialises requests (one ``free_at`` horizon per home, ``dir_proc``
occupancy each), which is where directory contention shows up.

Transactions (costs in DESIGN.md §8):

* **Read miss, clean line** — request + data reply (2 messages); the
  home's memory supplies the line (fault-injection hooks apply on a
  remote home).
* **Read miss, dirty line** — 4-hop: request, forward to owner,
  cache-to-cache data to the requester, sharing writeback to home; the
  owner downgrades M→S.
* **Write** — request, then a parallel invalidation round to every
  other sharer (2 messages each: invalidate + ack; the round costs the
  *max* outgoing + max ack leg, not the sum), then data (miss) or ack
  (upgrade).  A write by the current owner is directory-silent.

Variants:

* ``dir-lp`` (``limited_ptrs``): at most ``dir_ptr_limit`` precise
  pointers; overflow sets the broadcast bit, and the next invalidation
  round goes to all other PEs (``dir_bcast`` event, fanout ``P-1``).
* ``dir-pp`` (``phase_priority``, after Li & An): requests carry the
  epoch/phase the explicitly parallel program is in; the home services
  current-phase requests eagerly instead of making them wait out the
  occupancy horizon (counted as ``priority_bypasses``), and invalidation
  acks are not on the critical path (the phase barrier subsumes them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .base import M, S, CoherenceProtocol, bits


@dataclass(slots=True)
class DirEntry:
    """One line's directory state at its home node."""

    sharers: int = 0     #: PE bitmask, a superset of the live copies
    owner: int = -1      #: owning PE while dirty, else -1
    bcast: bool = False  #: limited-pointer overflow: sharers imprecise

    @property
    def dirty(self) -> bool:
        return self.owner >= 0


class DirectoryProtocol(CoherenceProtocol):
    kind = "dir"
    #: table[state] = (read miss, write); the local view has no E.
    table = (
        ((S, "rd", True), (M, "rdx", True)),   # I
        (None, (M, "upgr", False)),            # S: ownership upgrade
        (None, None),                          # (E unused)
        (None, (M, None, False)),              # M: directory-silent
    )

    def __init__(self, machine, limited_ptrs: bool = False,
                 phase_priority: bool = False) -> None:
        super().__init__(machine)
        self.limited_ptrs = limited_ptrs
        self.phase_priority = phase_priority
        if limited_ptrs:
            self.kind = "dir-lp"
        elif phase_priority:
            self.kind = "dir-pp"
        self.entries: Dict[int, DirEntry] = {}
        self.home_of: Dict[int, int] = {}
        #: per-home controller occupancy horizon (machine cycles).
        self.free_at = [0.0] * self.n_pes
        #: per-sender rows of message costs, each built on first use.
        self._msg_rows: List[Optional[List[float]]] = [None] * self.n_pes

    # -- directory mechanics --------------------------------------------
    def _row(self, p: int) -> List[float]:
        """Message costs ``dir_msg_base + remote_per_hop * hops(p, q)``
        from PE ``p`` to every ``q`` (hops are symmetric, so also to
        ``p``)."""
        row = self._msg_rows[p]
        if row is None:
            base = self.params.dir_msg_base
            per_hop = self.params.remote_per_hop
            hops = self.machine.torus.hops
            row = self._msg_rows[p] = [base + per_hop * hops(p, r)
                                       for r in range(self.n_pes)]
        return row

    def _home_grant(self, home: int, clock: float):
        """(stall, bypass) of one request at the home controller."""
        free = self.free_at[home]
        if self.phase_priority:
            # Current-phase requests are serviced eagerly; the horizon
            # still advances so the *amount* of bypassed waiting is
            # observable.
            bypass = 1 if free > clock else 0
            self.free_at[home] = max(free, clock) + self.params.dir_proc
            return 0.0, bypass
        grant = max(clock, free)
        self.free_at[home] = grant + self.params.dir_proc
        return grant - clock, 0

    def _live_dirty_owner(self, entry: DirEntry, line: int, pe_id: int):
        """The modified-owner PE, or None (reconciling silent evictions)."""
        owner = entry.owner
        if owner < 0:
            return None
        if owner == pe_id or self._code(owner, line) != M:
            entry.owner = -1
            return None
        return owner

    def _transact(self, pe_id, line, owner, clock, nxt, op, data):
        pe = self.pes[pe_id]
        params = self.params
        write = nxt == M
        home = self.home_of.setdefault(line, owner)
        if not write:
            self._retire(pe_id, line)
        entry = self.entries.get(line)
        if entry is None:
            entry = self.entries[line] = DirEntry()
        stall, bypass = self._home_grant(home, clock)
        from_home = self._row(home)
        msgs, c2c = 2, 0  # request + terminal data/ack
        cost = stall + from_home[pe_id] + params.dir_proc
        dirty = self._live_dirty_owner(entry, line, pe_id)
        if data and dirty is not None:
            # 4-hop: forward to the owner, cache-to-cache data; a read
            # leaves the owner a shared copy after a sharing writeback.
            msgs, c2c = 4, 1
            cost += from_home[dirty] + self._row(dirty)[pe_id] + self.lw
            pe.stats.c2c_transfers += 1
            if not write:
                self.st[dirty][line % self.nl] = line << 2 | S
                self._emit_wb(dirty, line, "downgrade")
                entry.owner = -1
        count = 0
        if write:
            # Invalidation round: precise sharers, or everyone on overflow.
            if entry.bcast:
                targets = ((1 << self.n_pes) - 1) & ~(1 << pe_id)
                pe.stats.dir_broadcasts += 1
                tracer = self.machine.tracer
                if tracer is not None:
                    tracer.emit(("dir_bcast", pe_id, line, self.n_pes - 1))
            else:
                targets = entry.sharers & ~(1 << pe_id)
            if targets:
                msgs += 2 * targets.bit_count()
                out = max(from_home[q] for q in bits(targets))
                # The round is parallel: pay the slowest invalidate and
                # (in the base protocol) the slowest ack.  Phase-priority
                # trusts the phase barrier to collect acks off the
                # critical path.
                cost += out if self.phase_priority else out + out
            count = self._invalidate_copies(line, targets)
        if data and dirty is None:
            # The home's memory supplies the line with the data reply.
            reply = from_home[pe_id] + params.local_mem
            if home != pe_id:
                reply = self.machine.memory.remote_latency(pe_id, reply)
            cost += reply
        elif not data:
            cost += from_home[pe_id]  # upgrade ack
        if write:
            if data:
                self._retire(pe_id, line)
            entry.sharers = 1 << pe_id
            entry.owner = pe_id
            entry.bcast = False
        else:
            entry.sharers |= 1 << pe_id
            if (self.limited_ptrs and not entry.bcast
                    and entry.sharers.bit_count() > params.dir_ptr_limit):
                entry.bcast = True
        self._set(pe_id, line, nxt)
        stats = pe.stats
        stats.dir_requests += 1
        stats.dir_messages += msgs
        stats.dir_stall_cycles += stall
        stats.priority_bypasses += bypass
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(("dir_req", pe_id, op, line, home, msgs, c2c,
                         bypass))
        self._account_inval(pe_id, line, count)
        return cost


__all__ = ["DirEntry", "DirectoryProtocol"]

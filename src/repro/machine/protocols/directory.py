"""Home-node directory coherence: full-map, limited-pointer, and
phase-priority request ordering.

Every line has a *home* PE (the home of its first-touched word, cached
per line — deterministic because the reference path replays accesses in
one fixed order).  The home's directory entry records the sharer set, a
dirty bit with the owning PE, and — in the limited-pointer variant — a
broadcast bit that replaces precise sharers once more than
``dir_ptr_limit`` PEs hold the line.

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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .base import CoherenceProtocol


@dataclass
class DirEntry:
    """One line's directory state at its home node."""

    sharers: Set[int] = field(default_factory=set)
    dirty: bool = False
    owner: int = -1      #: owning PE while ``dirty``
    bcast: bool = False  #: limited-pointer overflow: sharers imprecise


class DirectoryProtocol(CoherenceProtocol):
    kind = "dir"

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
        #: per-sender rows of :meth:`_msg` costs, each built on first use.
        self._msg_rows: List[Optional[List[float]]] = [None] * self.n_pes

    # -- directory mechanics --------------------------------------------
    def _entry(self, line_addr: int) -> DirEntry:
        entry = self.entries.get(line_addr)
        if entry is None:
            entry = self.entries[line_addr] = DirEntry()
        return entry

    def _msg(self, p: int, q: int) -> float:
        row = self._msg_rows[p]
        if row is None:
            base = self.params.dir_msg_base
            per_hop = self.params.remote_per_hop
            hops = self.machine.torus.hops
            row = self._msg_rows[p] = [base + per_hop * hops(p, r)
                                       for r in range(self.n_pes)]
        return row[q]

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

    def _add_sharer(self, entry: DirEntry, pe_id: int) -> None:
        entry.sharers.add(pe_id)
        if (self.limited_ptrs and not entry.bcast
                and len(entry.sharers) > self.params.dir_ptr_limit):
            entry.bcast = True

    def _live_dirty_owner(self, entry: DirEntry, line_addr: int, pe_id: int):
        """The modified-owner PE, or None (reconciling silent evictions)."""
        if not entry.dirty:
            return None
        owner = entry.owner
        if owner == pe_id or self._state(owner, line_addr) != "M":
            entry.dirty = False
            entry.owner = -1
            return None
        return owner

    # -- machine hooks ---------------------------------------------------
    def read_miss(self, pe_id: int, name: str, flat: int, line_addr: int,
                  owner: int) -> float:
        pe = self.machine.pes[pe_id]
        params = self.params
        home = self.home_of.setdefault(line_addr, owner)
        self._evict_victim(pe_id, line_addr)
        entry = self._entry(line_addr)
        stall, bypass = self._home_grant(home, pe.clock)
        cost = stall + self._msg(pe_id, home) + params.dir_proc
        dirty_owner = self._live_dirty_owner(entry, line_addr, pe_id)
        if dirty_owner is not None:
            # 4-hop: forward to owner, cache-to-cache data, sharing
            # writeback; the owner keeps a shared copy.
            msgs, c2c = 4, 1
            cost += (self._msg(home, dirty_owner)
                     + self._msg(dirty_owner, pe_id) + self.lw)
            pe.stats.c2c_transfers += 1
            self.states[dirty_owner][line_addr] = "S"
            self._emit_wb(dirty_owner, line_addr, "downgrade")
            entry.dirty = False
            entry.owner = -1
        else:
            msgs, c2c = 2, 0
            reply = self._msg(home, pe_id) + params.local_mem
            if home != pe_id:
                reply = self.machine.memory.remote_latency(pe_id, reply)
            cost += reply
        self._add_sharer(entry, pe_id)
        self._set_state(pe_id, line_addr, "S")
        pe.stats.dir_requests += 1
        pe.stats.dir_messages += msgs
        pe.stats.dir_stall_cycles += stall
        pe.stats.priority_bypasses += bypass
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(("dir_req", pe_id, "rd", line_addr, home, msgs,
                         c2c, bypass))
        return cost

    def write(self, pe_id: int, name: str, flat: int, line_addr: int,
              owner: int, cacheable: bool = True) -> float:
        pe = self.machine.pes[pe_id]
        params = self.params
        state = self._state(pe_id, line_addr)
        if state == "M":
            # Owner write: directory-silent, like a MESI M hit.
            return params.write_local
        home = self.home_of.setdefault(line_addr, owner)
        entry = self._entry(line_addr)
        stall, bypass = self._home_grant(home, pe.clock)
        msgs = 2  # request + terminal data/ack
        cost = stall + self._msg(pe_id, home) + params.dir_proc
        c2c = 0
        dirty_owner = self._live_dirty_owner(entry, line_addr, pe_id)
        if state == "I" and dirty_owner is not None:
            # Owner flushes the line to the requester before dying.
            msgs += 2
            c2c = 1
            cost += (self._msg(home, dirty_owner)
                     + self._msg(dirty_owner, pe_id) + self.lw)
            pe.stats.c2c_transfers += 1
        # Invalidation round: precise sharers, or everyone on overflow.
        if entry.bcast:
            targets = [q for q in range(self.n_pes) if q != pe_id]
            pe.stats.dir_broadcasts += 1
            tracer = self.machine.tracer
            if tracer is not None:
                tracer.emit(("dir_bcast", pe_id, line_addr,
                             self.n_pes - 1))
        else:
            targets = sorted(entry.sharers - {pe_id})
        if targets:
            msgs += 2 * len(targets)
            out = max(self._msg(home, q) for q in targets)
            ack = max(self._msg(q, home) for q in targets)
            # The round is parallel: pay the slowest invalidate and (in
            # the base protocol) the slowest ack.  Phase-priority trusts
            # the phase barrier to collect acks off the critical path.
            cost += out if self.phase_priority else out + ack
        count = self._invalidate_copies(pe_id, line_addr, targets)
        if state == "I" and dirty_owner is None:
            # The home's memory supplies the line with the data reply.
            reply = self._msg(home, pe_id) + params.local_mem
            if home != pe_id:
                reply = self.machine.memory.remote_latency(pe_id, reply)
            cost += reply
        elif state == "S":
            cost += self._msg(home, pe_id)  # upgrade ack
        op = "rdx" if state == "I" else "upgr"
        if state == "I":
            self._evict_victim(pe_id, line_addr)
            if cacheable:
                self.machine._install_line(pe, name, line_addr)
        entry.sharers = {pe_id}
        entry.dirty = True
        entry.owner = pe_id
        entry.bcast = False
        self._set_state(pe_id, line_addr, "M")
        pe.stats.dir_requests += 1
        pe.stats.dir_messages += msgs
        pe.stats.dir_stall_cycles += stall
        pe.stats.priority_bypasses += bypass
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(("dir_req", pe_id, op, line_addr, home, msgs,
                         c2c, bypass))
        self._account_inval(pe_id, line_addr, count)
        return cost + params.write_local

    def reset(self) -> None:
        super().reset()
        self.entries.clear()
        self.home_of.clear()
        self.free_at = [0.0] * self.n_pes


__all__ = ["DirEntry", "DirectoryProtocol"]

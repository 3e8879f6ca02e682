"""Shared machinery for the hardware coherence protocols.

Layering contract (see DESIGN.md §8): the protocol does **not** own the
data.  The machine's value plane stays write-through — every shared
write updates memory immediately, so memory is always current and the
per-word version counters / shadow oracle work unchanged.  On top of
that, the protocol keeps a *nominal* line state per PE (M/E/S/I for
MESI; I/S/M for a directory's local view), physically invalidates
remote copies when a write requires it (which is what makes these
schemes coherent — a remote reader can only miss to fresh memory), and
computes the latency of each miss/write from its transaction model.

State beside the tags: each PE keeps one int per cache set,
``line << 2 | state``, next to ``cache.tags``.  The entry is valid only
while its line is the set's physical tag, so a copy lost behind the
protocol's back (eviction-storm faults, a private fill into the set)
reads I after one comparison, and installing a line retires the
victim by overwriting its entry.  ``holders`` maps a line to the
bitmask of PEs whose entry holds it in a non-I state: a superset of
the live copies.  Every physical install of a shared line under a
protocol version goes through the protocol first.

Transitions come from one table, ``table[state][event]`` for the
events RD (a read miss; hits never reach the protocol) and WR (a
write): ``(next state, op, data)``.  ``op`` names the bus transaction
or directory request, None when the entry is silent; ``data`` says the
line's contents move to the requester (a fill, not an upgrade).
"""

from __future__ import annotations

from typing import Dict, List

I, S, E, M = range(4)
STATE_NAMES = "ISEM"
RD, WR = 0, 1


def bits(mask: int) -> List[int]:
    """The PEs of a bitmask, in PE order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class CoherenceProtocol:
    """Base class: per-set state beside the tags, holder bitmasks, and
    the table-driven write/read-miss entry points."""

    kind = "base"
    table: tuple = ()

    def __init__(self, machine) -> None:
        self.machine = machine
        self.params = params = machine.params
        self.n_pes = params.n_pes
        self.lw = params.line_words
        self.nl = params.n_lines
        self.pes = machine.pes
        self.tags = [pe.cache.tags for pe in machine.pes]
        #: per-PE, per-set ``line << 2 | state`` (valid while ``line`` is
        #: that set's tag; an I entry is 0).
        self.st: List[List[int]] = [[0] * self.nl for _ in self.pes]
        #: line -> bitmask of PEs whose entry holds the line (not I).
        self.holders: Dict[int, int] = {}
        #: parallel-phase counter, bumped at each barrier (dir-pp).
        self.phase = 0
        #: the state whose write entry is silent and keeps it (the owner
        #: write): the bulk protocol scan charges it inline.
        self.owner_state = next(code for code, row in enumerate(self.table)
                                if row[WR] == (code, None, False))

    # -- state beside the tags --------------------------------------------
    def _code(self, q: int, line: int) -> int:
        """PE ``q``'s live state code for ``line`` (I unless resident)."""
        s = line % self.nl
        e = self.st[q][s]
        if e >> 2 == line and self.tags[q][s] == line:
            return e & 3
        return I

    def state(self, pe_id: int, line_addr: int) -> str:
        """This PE's live protocol state for one line."""
        return STATE_NAMES[self._code(pe_id, line_addr)]

    def _set(self, q: int, line: int, code: int) -> None:
        """Enter ``code`` for a line whose set entry already describes it
        (or was retired for it)."""
        self.st[q][line % self.nl] = line << 2 | code
        self.holders[line] = self.holders.get(line, 0) | 1 << q

    def _retire(self, q: int, line: int) -> None:
        """Retire the entry the upcoming install of ``line`` replaces: a
        resident modified victim is written back."""
        s = line % self.nl
        e = self.st[q][s]
        victim = e >> 2
        if victim != line and e & 3:
            if e & 3 == M and self.tags[q][s] == victim:
                self._emit_wb(q, victim, "evict")
            held = self.holders[victim] & ~(1 << q)
            if held:
                self.holders[victim] = held
            else:
                del self.holders[victim]
            self.st[q][s] = 0

    def _live_others(self, pe_id: int, line_addr: int) -> List[int]:
        """Other PEs with a live copy, in PE order (deterministic)."""
        s = line_addr % self.nl
        tags = self.tags
        return [q for q in bits(self.holders.get(line_addr, 0)
                                & ~(1 << pe_id))
                if tags[q][s] == line_addr]

    def _invalidate_copies(self, line: int, mask: int) -> int:
        """Physically invalidate every live copy among the PEs of
        ``mask``; their entries drop to I.  Modified copies are flushed
        (one ``coh_wb`` each).  Returns the number of copies killed; the
        caller accounts them to the writer."""
        held = self.holders.get(line, 0)
        s = line % self.nl
        count = 0
        for q in bits(held & mask):
            tags = self.tags[q]
            if tags[s] == line:
                if self.st[q][s] & 3 == M:
                    self._emit_wb(q, line, "evict")
                tags[s] = -1
                count += 1
            self.st[q][s] = 0
        if held & ~mask:
            self.holders[line] = held & ~mask
        else:
            self.holders.pop(line, None)
        return count

    # -- shared accounting ------------------------------------------------
    def _emit_wb(self, pe_id: int, line_addr: int, reason: str) -> None:
        """Account one (nominal) writeback of a modified line."""
        self.pes[pe_id].stats.writebacks += 1
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(("coh_wb", pe_id, line_addr, reason))

    def _account_inval(self, writer: int, line_addr: int, count: int) -> None:
        if count <= 0:
            return
        self.pes[writer].stats.coh_invalidations += count
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(("coh_inval", writer, line_addr, count))

    # -- hooks the machine calls ------------------------------------------
    def read_miss(self, pe_id: int, line: int, owner: int,
                  clock: float) -> float:
        """Latency of a demand read miss on a shared line at PE time
        ``clock``.  The caller installs the line afterwards; the
        protocol records the new state (and retires the victim) here."""
        nxt, op, data = self.table[I][RD]
        return self._transact(pe_id, line, owner, clock, nxt, op, data)

    def write(self, pe_id: int, line: int, owner: int,
              clock: float) -> float:
        """Latency of a shared write (memory is already updated).  The
        caller installs the line afterwards when it is not resident."""
        code = self._code(pe_id, line)
        nxt, op, data = self.table[code][WR]
        if op is not None:
            return (self._transact(pe_id, line, owner, clock, nxt, op, data)
                    + self.params.write_local)
        if nxt != code:
            # Silent upgrade (MESI E->M): exclusivity means no traffic.
            self.st[pe_id][line % self.nl] = line << 2 | nxt
            self.pes[pe_id].stats.silent_upgrades += 1
            tracer = self.machine.tracer
            if tracer is not None:
                tracer.emit(("silent_upgrade", pe_id, line))
        return self.params.write_local

    def _transact(self, pe_id: int, line: int, owner: int, clock: float,
                  nxt: int, op: str, data: bool) -> float:
        """Run one non-silent table entry; returns its latency (without
        the store's own ``write_local``)."""
        raise NotImplementedError

    def on_barrier(self) -> None:
        self.phase += 1


__all__ = ["CoherenceProtocol", "I", "S", "E", "M", "RD", "WR",
           "STATE_NAMES", "bits"]

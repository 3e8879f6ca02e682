"""Per-PE direct-mapped, write-through, no-write-allocate data cache.

This is the T3D Alpha 21064 dcache shape: 8 KB, 32-byte lines, direct
mapped, write-through with no write allocation.  Crucially there is **no
hardware coherence**: a remote PE's write to memory neither updates nor
invalidates lines cached here — that is the staleness the CCDP compiler
must neutralise.

Lines store values *and* per-word version numbers so a stale read is an
exact, observable event: the cache happily returns the old value and the
coherence checker compares the cached version with memory's.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .params import MachineParams


class DirectMappedCache:
    """One PE's data cache, addressed by global word address."""

    __slots__ = ("n_lines", "line_words", "tags", "data", "vers")

    def __init__(self, params: MachineParams) -> None:
        self.n_lines = params.n_lines
        self.line_words = params.line_words
        # tag == full line address (addr // line_words); -1 means invalid.
        self.tags = np.full(self.n_lines, -1, dtype=np.int64)
        self.data = np.zeros((self.n_lines, self.line_words), dtype=np.float64)
        self.vers = np.zeros((self.n_lines, self.line_words), dtype=np.int64)

    # -- lookup ---------------------------------------------------------------
    def probe(self, addr: int) -> bool:
        """True when the word's line is present (valid, tag match)."""
        line = addr // self.line_words
        return self.tags[line % self.n_lines] == line

    def read(self, addr: int) -> Optional[Tuple[float, int]]:
        """(value, version) on hit, ``None`` on miss.  The value returned
        on a hit is whatever the cache holds — possibly stale."""
        line = addr // self.line_words
        index = line % self.n_lines
        if self.tags[index] != line:
            return None
        offset = addr - line * self.line_words
        return float(self.data[index, offset]), int(self.vers[index, offset])

    # -- fills / updates ------------------------------------------------------------
    def install(self, line_addr: int, words: np.ndarray, versions: np.ndarray) -> None:
        """Fill a whole line (read miss, prefetch arrival, vector install)."""
        index = line_addr % self.n_lines
        self.tags[index] = line_addr
        self.data[index, :] = words
        self.vers[index, :] = versions

    def write_through_update(self, addr: int, value: float, version: int) -> bool:
        """On a store: update the word if its line is present (no
        allocation on miss).  Returns True when the line was present."""
        line = addr // self.line_words
        index = line % self.n_lines
        if self.tags[index] != line:
            return False
        offset = addr - line * self.line_words
        self.data[index, offset] = value
        self.vers[index, offset] = version
        return True

    # -- invalidation -----------------------------------------------------------------
    def invalidate_line(self, line_addr: int) -> bool:
        """Invalidate one line if present; returns True when it was."""
        index = line_addr % self.n_lines
        if self.tags[index] == line_addr:
            self.tags[index] = -1
            return True
        return False

    def invalidate_range(self, addr_lo: int, addr_hi: int) -> int:
        """Invalidate every present line overlapping [addr_lo, addr_hi];
        returns the number of lines dropped."""
        first = addr_lo // self.line_words
        last = addr_hi // self.line_words
        span = last - first + 1
        if span >= self.n_lines:
            count = int(np.count_nonzero(self.tags >= 0))
            self.tags[:] = -1
            return count
        if span > 4:
            # Fewer lines than sets: each line maps to a distinct set, so
            # one gather/scatter pair invalidates every present line.
            lines = np.arange(first, last + 1, dtype=np.int64)
            ix = lines % self.n_lines
            hit = self.tags[ix] == lines
            count = int(np.count_nonzero(hit))
            if count:
                self.tags[ix[hit]] = -1
            return count
        count = 0
        for line in range(first, last + 1):
            if self.invalidate_line(line):
                count += 1
        return count

    def invalidate_sets(self, sets: np.ndarray) -> int:
        """Invalidate whatever lines are resident in the given cache sets
        (fault-injection eviction storms); returns the number dropped.
        Always coherence-safe: write-through means a dropped line only
        costs a fresh refill."""
        dropped = int(np.count_nonzero(self.tags[sets] >= 0))
        self.tags[sets] = -1
        return dropped

    def flush(self) -> None:
        self.tags[:] = -1

    # -- introspection -----------------------------------------------------------------
    def occupancy(self) -> int:
        return int(np.count_nonzero(self.tags >= 0))


__all__ = ["DirectMappedCache"]

"""Processing element state: clock, cache, prefetch hardware, stats."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .cache import DirectMappedCache
from .params import MachineParams
from .prefetchq import PrefetchQueue, VectorUnit
from .stats import PEStats


class PE:
    """All per-processor simulator state."""

    __slots__ = ("pe_id", "params", "_clocks", "_clock_slot", "cache",
                 "queue", "vectors", "last_prefetch_pe", "dropped_lines",
                 "stats")

    def __init__(self, pe_id: int, params: MachineParams) -> None:
        self.pe_id = pe_id
        self.params = params
        # The clock lives as one slot of a (possibly machine-stacked)
        # float64 array — see rebase_clock.  A standalone PE gets its
        # own one-element plane.
        self._clocks = np.zeros(1, dtype=np.float64)
        self._clock_slot = 0
        self.cache = DirectMappedCache(params)
        self.queue = PrefetchQueue(params)
        self.vectors = VectorUnit(params)
        self.last_prefetch_pe: Optional[int] = None
        # Line addresses whose prefetch was dropped and not yet re-fetched:
        # the next read to such a line degrades to a bypass-cache fetch
        # (the paper's rule 2 for dropped prefetches).
        self.dropped_lines: set = set()
        self.stats = PEStats()

    @property
    def clock(self) -> float:
        """This PE's clock, read from the stacked clock plane.

        Returned as a plain float so every downstream consumer (stat
        accumulators, signatures, JSON records) keeps native types."""
        return float(self._clocks[self._clock_slot])

    @clock.setter
    def clock(self, value: float) -> None:
        self._clocks[self._clock_slot] = value

    def rebase_clock(self, clocks: np.ndarray, slot: int) -> None:
        """Move this PE's clock into row ``slot`` of a machine-stacked
        plane (carrying the current value along), so cross-PE consumers
        — barrier, elapsed — address every clock in one NumPy
        operation."""
        clocks[slot] = self._clocks[self._clock_slot]
        self._clocks = clocks
        self._clock_slot = slot

    def advance(self, cycles: float) -> None:
        self._clocks[self._clock_slot] += cycles
        self.stats.busy_cycles += cycles

    def wait_until(self, time: float) -> float:
        """Stall until ``time``; returns the stall duration."""
        clocks = self._clocks
        slot = self._clock_slot
        now = float(clocks[slot])
        if time <= now:
            return 0.0
        stall = time - now
        clocks[slot] = time
        self.stats.idle_cycles += stall
        return stall

    def metrics_snapshot(self) -> tuple:
        """The counters the epoch metrics timeline tracks as deltas:
        (reads, hits, misses, prefetch_issued, pf_dropped, idle)."""
        s = self.stats
        return (s.reads, s.cache_hits, s.cache_misses, s.prefetch_issued,
                s.pf_dropped, s.idle_cycles)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PE {self.pe_id} @ {self.clock:.0f} cycles>"


__all__ = ["PE"]

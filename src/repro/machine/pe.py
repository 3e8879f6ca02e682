"""Processing element state: clock, cache, prefetch hardware, stats."""

from __future__ import annotations

from typing import Optional

from .cache import DirectMappedCache
from .params import MachineParams
from .prefetchq import PrefetchQueue, VectorUnit
from .stats import PEStats


class PE:
    """All per-processor simulator state."""

    __slots__ = ("pe_id", "params", "clock", "cache", "queue", "vectors",
                 "last_prefetch_pe", "dropped_lines", "stats")

    def __init__(self, pe_id: int, params: MachineParams) -> None:
        self.pe_id = pe_id
        self.params = params
        self.clock = 0.0
        self.cache = DirectMappedCache(params)
        self.queue = PrefetchQueue(params)
        self.vectors = VectorUnit(params)
        self.last_prefetch_pe: Optional[int] = None
        # Line addresses whose prefetch was dropped and not yet re-fetched:
        # the next read to such a line degrades to a bypass-cache fetch
        # (the paper's rule 2 for dropped prefetches).
        self.dropped_lines: set = set()
        self.stats = PEStats()

    def advance(self, cycles: float) -> None:
        self.clock += cycles
        self.stats.busy_cycles += cycles

    def wait_until(self, time: float) -> float:
        """Stall until ``time``; returns the stall duration."""
        now = self.clock
        if time <= now:
            return 0.0
        stall = time - now
        self.clock = time
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

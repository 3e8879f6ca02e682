"""Execution statistics counters.

One :class:`PEStats` per PE, merged into a :class:`MachineStats` for
reporting.  Counters are plain ints (cheap to bump on the hot path).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List


@dataclass
class PEStats:
    """Per-PE event counters."""

    reads: int = 0
    writes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    local_fills: int = 0
    remote_fills: int = 0
    bypass_reads: int = 0
    uncached_local_reads: int = 0
    uncached_remote_reads: int = 0
    remote_writes: int = 0
    stale_hits: int = 0
    prefetch_issued: int = 0
    pf_dropped: int = 0        #: prefetches dropped (capacity or injected)
    pf_drop_bypass: int = 0    #: dropped prefetches replaced by bypass fetches
    prefetch_extracted: int = 0
    prefetch_late_cycles: float = 0.0
    prefetch_unused: int = 0
    vector_prefetches: int = 0
    vector_words: int = 0
    vector_stall_cycles: float = 0.0
    invalidations: int = 0
    dtb_setups: int = 0
    # -- hardware coherence protocols (mesi / dir versions) ------------
    bus_rd: int = 0            #: BusRd transactions issued
    bus_rdx: int = 0           #: BusRdX (read-for-ownership) transactions
    bus_upgr: int = 0          #: BusUpgr (invalidate-only) transactions
    bus_stall_cycles: float = 0.0  #: bus arbitration stalls
    c2c_transfers: int = 0     #: lines supplied cache-to-cache
    writebacks: int = 0        #: modified lines flushed (evict/downgrade)
    silent_upgrades: int = 0   #: MESI E->M transitions (no bus traffic)
    coh_invalidations: int = 0  #: remote copies killed by this PE's writes
    dir_requests: int = 0      #: directory transactions issued
    dir_messages: int = 0      #: directory protocol messages (all hops)
    dir_broadcasts: int = 0    #: limited-pointer overflow broadcasts
    dir_stall_cycles: float = 0.0  #: home-controller occupancy stalls
    priority_bypasses: int = 0  #: dir-pp requests serviced ahead of queue
    flops: int = 0
    iterations: int = 0
    busy_cycles: float = 0.0
    idle_cycles: float = 0.0

    def merge(self, other: "PEStats") -> None:
        if not isinstance(other, PEStats):
            raise TypeError(f"merge expects PEStats, got "
                            f"{type(other).__name__}")
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def add_bulk(self, **deltas: float) -> None:
        """Accumulate many counters at once (batched backend commit path).

        Keyword names must be counter *field* names.  Validated against
        the dataclass fields explicitly: ``getattr`` alone would let a
        typo silently shadow a class-level attribute (``hit_rate``, a
        method name) instead of raising."""
        counters = self.__dict__
        for name, delta in deltas.items():
            if name not in _PE_COUNTER_FIELDS:
                raise ValueError(
                    f"unknown PEStats counter {name!r}; valid counters: "
                    f"{', '.join(sorted(_PE_COUNTER_FIELDS))}")
            if delta:
                counters[name] += delta

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


#: The counter names ``add_bulk`` accepts (exactly the dataclass fields).
_PE_COUNTER_FIELDS = frozenset(f.name for f in fields(PEStats))


@dataclass
class MachineStats:
    """Aggregated machine-level statistics for one run."""

    per_pe: List[PEStats] = field(default_factory=list)
    stale_reads: int = 0           #: coherence violations observed
    stale_examples: List[str] = field(default_factory=list)
    barriers: int = 0
    epochs: int = 0

    def total(self) -> PEStats:
        out = PEStats()
        for pe_stats in self.per_pe:
            out.merge(pe_stats)
        return out

    def as_dict(self) -> Dict[str, float]:
        total = self.total()
        out = {f.name: getattr(total, f.name) for f in fields(total)}
        out.update(stale_reads=self.stale_reads, barriers=self.barriers,
                   epochs=self.epochs)
        return out

    def summary(self) -> str:
        total = self.total()
        return (f"reads={total.reads} writes={total.writes} "
                f"hit_rate={total.hit_rate:.3f} "
                f"prefetches={total.prefetch_issued} "
                f"(dropped {total.pf_dropped}, "
                f"{total.pf_drop_bypass} replaced by bypass) "
                f"vectors={total.vector_prefetches} "
                f"stale_reads={self.stale_reads} epochs={self.epochs}")


__all__ = ["PEStats", "MachineStats"]

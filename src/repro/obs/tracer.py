"""The Tracer: bounded event recording + per-epoch metrics timeline.

A :class:`Tracer` is handed to the machine through
``ExecutionConfig(tracer=...)``.  The reference interpreter emits one
tuple per machine event; the batched backend synthesises the identical
stream from its bulk plans (or, when every kind it would emit is
sampled out, folds whole chunks into the per-kind counters without
materialising tuples).  Three knobs bound the cost of a trace:

``capacity``
    Ring-buffer size.  ``None`` keeps every recorded event (tests,
    goldens); an int keeps only the most recent ``capacity`` events
    while the per-kind counters stay exact.

``sample``
    Per-event-type decimation.  ``None``/1 records every event, ``k``
    records the first of every ``k`` emissions of a kind, ``0`` counts
    the kind without recording any tuples.  An int applies to all
    kinds; a ``{kind: k}`` dict applies per kind (default 1).  Sampling
    decisions depend only on the per-kind emission ordinal, and both
    backends emit identical streams, so a sampled trace is also
    backend-deterministic.

``kinds``
    Optional allow-list: kinds outside it are counted but never
    recorded (equivalent to ``sample=0`` for them).

Counters are exact regardless of sampling or capacity — that is the
contract the trace<->stats reconciliation tests lean on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from .events import EVENT_KINDS


@dataclass
class EpochPEMetrics:
    """One PE's activity during one epoch (deltas over the epoch)."""

    pe: int
    reads: int
    hits: int
    misses: int
    prefetch_issued: int
    pf_dropped: int
    stall_cycles: float        #: idle cycles accumulated during the epoch
    queue_high_water: int      #: deepest the prefetch queue got
    cache_lines: int           #: resident cache lines at epoch end

    @property
    def hit_rate(self) -> float:
        cached = self.hits + self.misses
        return self.hits / cached if cached else 0.0

    def as_dict(self) -> dict:
        return {"pe": self.pe, "reads": self.reads, "hits": self.hits,
                "misses": self.misses, "hit_rate": self.hit_rate,
                "prefetch_issued": self.prefetch_issued,
                "pf_dropped": self.pf_dropped,
                "stall_cycles": self.stall_cycles,
                "queue_high_water": self.queue_high_water,
                "cache_lines": self.cache_lines}


@dataclass
class EpochRow:
    """One row of the metrics timeline: an epoch × every PE."""

    index: int
    label: str
    start: float
    end: float
    per_pe: List[EpochPEMetrics] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"index": self.index, "label": self.label,
                "start": self.start, "end": self.end,
                "per_pe": [m.as_dict() for m in self.per_pe]}


class Tracer:
    """Typed machine-event recorder with exact per-kind counters."""

    def __init__(self, capacity: Optional[int] = None,
                 sample: Union[None, int, Dict[str, int]] = None,
                 kinds: Optional[Iterable[str]] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None: {capacity}")
        self.capacity = capacity
        self._events = deque(maxlen=capacity) if capacity else []
        self.counts: Dict[str, int] = {}
        self.kept = 0                     #: events recorded (pre-eviction)
        self._rows: List[EpochRow] = []   #: materialised timeline rows
        self._raw_rows: List[tuple] = []  #: epoch snapshots not yet folded
        default = 1
        strides: Dict[str, int] = {}
        if isinstance(sample, dict):
            for kind, k in sample.items():
                if kind not in EVENT_KINDS:
                    raise ValueError(f"unknown event kind in sample: {kind!r}")
                if not isinstance(k, int) or k < 0:
                    raise ValueError(f"sample stride must be an int >= 0: "
                                     f"{kind}={k!r}")
                strides[kind] = k
        elif sample is not None:
            if not isinstance(sample, int) or sample < 0:
                raise ValueError(f"sample must be an int >= 0 or a dict: "
                                 f"{sample!r}")
            default = sample
        if kinds is not None:
            allowed = set(kinds)
            unknown = allowed - EVENT_KINDS
            if unknown:
                raise ValueError(f"unknown event kinds: {sorted(unknown)}")
            for kind in EVENT_KINDS - allowed:
                strides[kind] = 0
        self._strides = strides
        self._default_stride = default
        self._counts_only: Dict[object, bool] = {}
        self._epoch_snap = None

    # -- recording ---------------------------------------------------------
    def emit(self, event: tuple) -> None:
        """Count (always) and record (subject to sampling) one event."""
        kind = event[0]
        seen = self.counts.get(kind, 0)
        self.counts[kind] = seen + 1
        k = self._strides.get(kind, self._default_stride)
        if k == 0 or (k > 1 and seen % k):
            return
        self.kept += 1
        self._events.append(event)

    def add_counts(self, kind: str, n: int) -> None:
        """Bulk-count ``n`` events of a sampled-out kind.

        The batched backend's counts-only fast path: when
        :meth:`counts_only` is true for every kind a chunk would emit,
        it tallies here instead of synthesising tuples.  Only valid for
        kinds whose stride is 0 — otherwise the sampling ordinals would
        diverge from the reference backend's."""
        if n:
            self.counts[kind] = self.counts.get(kind, 0) + n

    def stride(self, kind: str) -> int:
        return self._strides.get(kind, self._default_stride)

    def counts_only(self, kinds: Iterable[str]) -> bool:
        """True when none of ``kinds`` would record a tuple.

        Strides are fixed at construction, so the answer is memoised per
        kinds collection (the batched backend asks once per chunk)."""
        try:
            cached = self._counts_only.get(kinds)
        except TypeError:
            return all(self.stride(kind) == 0 for kind in kinds)
        if cached is None:
            cached = all(self.stride(kind) == 0 for kind in kinds)
            self._counts_only[kinds] = cached
        return cached

    @property
    def events(self) -> list:
        """The recorded events, oldest first (a fresh list)."""
        return list(self._events)

    @property
    def evicted(self) -> int:
        """Recorded events the ring buffer has since pushed out."""
        return self.kept - len(self._events)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    # -- epoch timeline ----------------------------------------------------
    def epoch_begin(self, label: str, machine) -> None:
        """Mark an epoch start: emit the event, snapshot per-PE counters,
        and reset the per-epoch high-water marks."""
        index = len(self._rows) + len(self._raw_rows)
        now = machine.elapsed()
        self.emit(("epoch_begin", index, label, now))
        snap = []
        for pe in machine.pes:
            pe.queue.reset_high_water()
            snap.append(pe.metrics_snapshot())
        self._epoch_snap = (index, label, now, snap)

    def epoch_end(self, label: str, machine) -> None:
        """Mark an epoch end: emit the event and snapshot the per-PE
        counters.  The snapshot is *raw* — folding it into an
        :class:`EpochRow` is deferred to the :attr:`timeline` property,
        keeping the epoch boundary on the simulation's hot path cheap."""
        if self._epoch_snap is None:
            raise RuntimeError("epoch_end without a matching epoch_begin")
        index, begin_label, start, snap = self._epoch_snap
        self._epoch_snap = None
        end = machine.elapsed()
        self.emit(("epoch_end", index, label, end))
        after = [(pe.pe_id, pe.metrics_snapshot(), pe.queue.high_water,
                  pe.cache.tags.copy()) for pe in machine.pes]
        self._raw_rows.append((index, label, start, end, snap, after))

    @property
    def timeline(self) -> List[EpochRow]:
        """The metrics timeline, folded lazily from the epoch snapshots."""
        if self._raw_rows:
            for index, label, start, end, snap, after in self._raw_rows:
                row = EpochRow(index=index, label=label, start=start,
                               end=end)
                for before, (pe_id, now, hw, tags) in zip(snap, after):
                    row.per_pe.append(EpochPEMetrics(
                        pe=pe_id,
                        reads=now[0] - before[0],
                        hits=now[1] - before[1],
                        misses=now[2] - before[2],
                        prefetch_issued=now[3] - before[3],
                        pf_dropped=now[4] - before[4],
                        stall_cycles=now[5] - before[5],
                        queue_high_water=hw,
                        cache_lines=int(np.count_nonzero(tags >= 0))))
                self._rows.append(row)
            self._raw_rows.clear()
        return self._rows


__all__ = ["Tracer", "EpochRow", "EpochPEMetrics"]

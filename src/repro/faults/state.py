"""Runtime fault-injection state: deterministic RNG streams + counters.

A :class:`FaultState` is instantiated once per :class:`~repro.machine
.machine.Machine` from an immutable :class:`~repro.faults.models
.FaultPlan`.  Every (model, PE) pair gets its own independent generator
seeded from ``(plan.seed, model stream id, pe)``, so the injection
sequence a PE experiences depends only on the plan and that PE's own
event order — never on how the interpreter interleaves PEs, and never
on which backend serviced the surrounding code (the batched backend
falls back to the reference event order whenever a plan is active).

The injection *decisions* live here; the *consequences* (bypass fetches,
retries, evictions) are applied by the machine layer at its hook points.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional

import numpy as np

from .models import (EvictionStormFault, FaultModel, FaultPlan,
                     LatencyJitterFault, MODEL_TYPES, PrefetchDropFault,
                     QueueSqueezeFault, RemoteFailFault)


@dataclass
class FaultStats:
    """What the fault layer actually did during one run."""

    forced_drops: int = 0        #: prefetches dropped by PrefetchDropFault
    squeezed_issues: int = 0     #: issues that saw a squeezed capacity
    jitter_events: int = 0
    jitter_cycles: float = 0.0
    remote_failures: int = 0     #: failed attempts (each retried)
    retry_cycles: float = 0.0    #: re-paid latency + backoff
    storms: int = 0
    evicted_lines: int = 0
    batch_fallbacks: int = 0     #: batched chunks sent to the reference path

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        return (f"forced_drops={self.forced_drops} "
                f"squeezed={self.squeezed_issues} "
                f"jitter={self.jitter_events}ev/{self.jitter_cycles:.0f}cyc "
                f"remote_failures={self.remote_failures} "
                f"retry_cycles={self.retry_cycles:.0f} "
                f"storms={self.storms} evicted={self.evicted_lines} "
                f"batch_fallbacks={self.batch_fallbacks}")


def _stream_id(model: FaultModel) -> int:
    return MODEL_TYPES.index(type(model))


class FaultState:
    """Per-run fault machinery: one RNG per (model, PE), shared stats."""

    def __init__(self, plan: FaultPlan, n_pes: int) -> None:
        self.plan = plan
        self.n_pes = n_pes
        self.stats = FaultStats()
        # Machine-event tracer (set by Machine when tracing is on):
        # injection decisions surface as fault_activation events, so a
        # trace shows *where* in the event stream each fault landed.
        self.tracer = None
        self._drop: List[PrefetchDropFault] = []
        self._squeeze: List[QueueSqueezeFault] = []
        self._jitter: List[LatencyJitterFault] = []
        self._fail: List[RemoteFailFault] = []
        self._storm: List[EvictionStormFault] = []
        by_kind = {PrefetchDropFault: self._drop,
                   QueueSqueezeFault: self._squeeze,
                   LatencyJitterFault: self._jitter,
                   RemoteFailFault: self._fail,
                   EvictionStormFault: self._storm}
        for model in plan.models:
            by_kind[type(model)].append(model)
        # rngs[(stream_id, occurrence_index, pe)] -> Generator.  The
        # occurrence index distinguishes two instances of the same model
        # class in one plan.
        self._rngs: Dict[tuple, np.random.Generator] = {}
        seen: Dict[int, int] = {}
        for model in plan.models:
            sid = _stream_id(model)
            occ = seen.get(sid, 0)
            seen[sid] = occ + 1
            for pe in range(n_pes):
                seq = np.random.SeedSequence((plan.seed, sid, occ, pe))
                self._rngs[(id(model), pe)] = np.random.default_rng(seq)

    def _rng(self, model: FaultModel, pe: int) -> np.random.Generator:
        return self._rngs[(id(model), pe)]

    # -- prefetch-queue hooks ----------------------------------------------
    def force_drop(self, pe: int) -> bool:
        """Should this prefetch issue be dropped outright?"""
        dropped = False
        for model in self._drop:
            if self._rng(model, pe).random() < model.rate:
                dropped = True
        if dropped:
            self.stats.forced_drops += 1
            if self.tracer is not None:
                self.tracer.emit(("fault_activation", pe, "prefetch_drop",
                                  "issue dropped before the queue"))
        return dropped

    def squeeze_capacity(self, pe: int, capacity: int) -> int:
        """Effective queue capacity for one issue (<= hardware capacity)."""
        cap = capacity
        squeezed = False
        for model in self._squeeze:
            if self._rng(model, pe).random() < model.rate:
                cap = min(cap, model.min_slots)
                squeezed = True
        if squeezed:
            self.stats.squeezed_issues += 1
            if self.tracer is not None:
                self.tracer.emit(("fault_activation", pe, "queue_squeeze",
                                  f"capacity squeezed to {cap}"))
        return cap

    # -- network hooks -----------------------------------------------------
    def remote_penalty(self, pe: int, base_latency: float) -> float:
        """Extra cycles for one remote transfer: latency jitter plus
        transient failures with bounded exponential retry/backoff."""
        extra = 0.0
        for model in self._jitter:
            if self._rng(model, pe).random() < model.rate:
                extra += float(self._rng(model, pe).integers(
                    1, model.max_extra + 1))
                self.stats.jitter_events += 1
        if extra:
            self.stats.jitter_cycles += extra
            if self.tracer is not None:
                self.tracer.emit(("fault_activation", pe, "latency_jitter",
                                  f"+{extra:g} cycles"))
        failures = 0
        for model in self._fail:
            rng = self._rng(model, pe)
            for attempt in range(model.max_retries):
                if rng.random() >= model.rate:
                    break  # attempt succeeded
                # Failed attempt: the latency was paid for nothing; back
                # off, then retry (re-paying the base latency).
                penalty = float(model.backoff) * (2 ** attempt) + base_latency
                extra += penalty
                failures += 1
                self.stats.remote_failures += 1
                self.stats.retry_cycles += penalty
            # After max_retries failures the final attempt succeeds
            # unconditionally — the fault is transient by construction.
        if failures and self.tracer is not None:
            self.tracer.emit(("fault_activation", pe, "remote_fail",
                              f"{failures} failed attempts, retried"))
        return extra

    # -- cache hooks -------------------------------------------------------
    def maybe_evict(self, pe: int, cache) -> None:
        """Random eviction storm against one PE's cache.  Always coherence-
        safe: the cache is write-through, so dropping lines only converts
        future hits into (fresh) misses."""
        for model in self._storm:
            rng = self._rng(model, pe)
            if rng.random() >= model.rate:
                continue
            resident = np.flatnonzero(cache.tags >= 0)
            if resident.size == 0:
                continue
            k = min(model.lines, int(resident.size))
            sets = rng.choice(resident, size=k, replace=False)
            evicted = cache.invalidate_sets(sets)
            self.stats.storms += 1
            self.stats.evicted_lines += evicted
            if self.tracer is not None:
                self.tracer.emit(("fault_activation", pe, "eviction_storm",
                                  f"{evicted} lines evicted"))
                # Storm invalidations are fault consequences, not program
                # invalidations: reason "fault" keeps the fold from
                # counting them against PEStats.invalidations.
                self.tracer.emit(("invalidate", pe, "*", evicted, "fault",
                                  -1, -1))


def make_state(plan: Optional[FaultPlan], n_pes: int) -> Optional[FaultState]:
    """A :class:`FaultState` for an active plan, else ``None``."""
    if plan is None or not plan.active:
        return None
    return FaultState(plan, n_pes)


__all__ = ["FaultStats", "FaultState", "make_state"]

"""Fault model specifications.

Each model is a small frozen dataclass describing *one* way the machine
can degrade; a :class:`FaultPlan` composes any number of them with one
seed.  Plans are pure specifications — hashable, comparable, printable —
so they can live inside the (frozen) execution configuration and be
reproduced exactly from a CLI string.  All randomness happens at run
time in :class:`~repro.faults.state.FaultState`, which derives one
independent, deterministic RNG stream per (model, PE) from the plan
seed; the same plan therefore injects the same faults at the same
machine events on every run, on every backend.

The models map to the paper's two runtime correctness rules:

* **Rule 1** — cached entries are invalidated *before* each prefetch is
  issued.  :class:`EvictionStormFault` attacks the cache directly:
  random invalidations can only cost refills, never correctness, if the
  rule holds everywhere.
* **Rule 2** — prefetches dropped for lack of hardware resources are
  replaced by bypass-cache fetches.  :class:`PrefetchDropFault` and
  :class:`QueueSqueezeFault` force the drop path far more often than a
  16-slot queue ever would naturally, so the bypass degradation is
  exercised, observably (``pf_dropped`` / ``pf_drop_bypass`` stats).

:class:`LatencyJitterFault` and :class:`RemoteFailFault` perturb the
network: they move arrival/completion times and add bounded
retry/backoff delays, shuffling every prefetch-timeliness decision
without ever changing what value an access returns.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Tuple


class FaultPlanError(ValueError):
    """A fault plan (or its textual spec) is malformed."""


def _check_rate(model: str, rate: float) -> None:
    if not isinstance(rate, (int, float)) or not 0.0 <= float(rate) <= 1.0:
        raise FaultPlanError(
            f"{model}: rate must be a probability in [0, 1], got {rate!r}")


def _check_nonneg_int(model: str, name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise FaultPlanError(
            f"{model}: {name} must be a non-negative integer, got {value!r}")


def _check_pos_int(model: str, name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise FaultPlanError(
            f"{model}: {name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class FaultModel:
    """Base class: every fault model has an injection probability."""

    rate: float = 0.0

    #: spec-string name, set by each subclass (used by the parser and in
    #: error messages / stats labels).
    name = "fault"

    def __post_init__(self) -> None:
        _check_rate(self.name, self.rate)

    def describe(self) -> str:
        parts = [f"rate={self.rate:g}"]
        for f in fields(self):
            if f.name != "rate":
                parts.append(f"{f.name}={getattr(self, f.name)}")
        return f"{self.name}({', '.join(parts)})"


@dataclass(frozen=True)
class PrefetchDropFault(FaultModel):
    """Drop an issued line prefetch with probability ``rate`` even when
    the queue has room — modelling arbitration loss / queue starvation.
    The dropped prefetch's use point degrades to a bypass-cache fetch
    (the paper's rule 2), exactly like a capacity drop."""

    rate: float = 0.25
    name = "drop"


@dataclass(frozen=True)
class QueueSqueezeFault(FaultModel):
    """Transiently squeeze the prefetch queue's capacity to ``min_slots``
    with probability ``rate`` per issue, overflowing it early.  The
    overflow is a normal capacity drop: counted in ``pf_dropped`` and
    replaced by a bypass fetch at the use point."""

    rate: float = 0.25
    min_slots: int = 0
    name = "squeeze"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_nonneg_int(self.name, "min_slots", self.min_slots)


@dataclass(frozen=True)
class LatencyJitterFault(FaultModel):
    """Add 1..``max_extra`` cycles of network jitter to a remote
    transfer (demand read/write, prefetch arrival, vector completion)
    with probability ``rate``.  Timing-only: values are unaffected."""

    rate: float = 0.5
    max_extra: int = 64
    name = "jitter"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_pos_int(self.name, "max_extra", self.max_extra)


@dataclass(frozen=True)
class RemoteFailFault(FaultModel):
    """Transient remote-memory failure: an attempt fails with probability
    ``rate`` and is retried after an exponential backoff
    (``backoff * 2**attempt`` cycles, each retry re-paying the base
    latency), at most ``max_retries`` times; the access then succeeds
    unconditionally.  Bounded, so a run always completes."""

    rate: float = 0.1
    max_retries: int = 3
    backoff: int = 50
    name = "remotefail"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_nonneg_int(self.name, "max_retries", self.max_retries)
        _check_nonneg_int(self.name, "backoff", self.backoff)


@dataclass(frozen=True)
class EvictionStormFault(FaultModel):
    """With probability ``rate`` per memory operation, invalidate up to
    ``lines`` randomly chosen resident cache lines on the issuing PE.
    Write-through caches make eviction always safe — a storm can only
    add misses, never staleness — which is precisely what the oracle
    proves."""

    rate: float = 0.05
    lines: int = 4
    name = "evict"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_pos_int(self.name, "lines", self.lines)


#: Registry used by the spec parser and the per-PE RNG derivation (the
#: position of a model's class here keys its RNG stream, so streams stay
#: stable as plans gain or lose other models).
MODEL_TYPES: Tuple[type, ...] = (PrefetchDropFault, QueueSqueezeFault,
                                 LatencyJitterFault, RemoteFailFault,
                                 EvictionStormFault)


@dataclass(frozen=True)
class FaultPlan:
    """A composition of fault models plus the seed that makes every
    injection deterministic.  Immutable and hashable, so it can ride in
    a frozen :class:`~repro.runtime.exec_config.ExecutionConfig`."""

    models: Tuple[FaultModel, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.models, tuple):
            # Accept any iterable of models but store a tuple (hashable).
            object.__setattr__(self, "models", tuple(self.models))
        for model in self.models:
            if not isinstance(model, FaultModel):
                raise FaultPlanError(
                    f"fault plan entries must be FaultModel instances, "
                    f"got {type(model).__name__}: {model!r}")
        if (not isinstance(self.seed, int) or isinstance(self.seed, bool)
                or self.seed < 0):
            raise FaultPlanError(
                f"fault seed must be a non-negative integer, got "
                f"{self.seed!r}")

    @property
    def active(self) -> bool:
        return bool(self.models)

    def describe(self) -> str:
        if not self.models:
            return "fault-free"
        inner = ", ".join(m.describe() for m in self.models)
        return f"FaultPlan(seed={self.seed}: {inner})"


__all__ = ["FaultPlanError", "FaultModel", "PrefetchDropFault",
           "QueueSqueezeFault", "LatencyJitterFault", "RemoteFailFault",
           "EvictionStormFault", "MODEL_TYPES", "FaultPlan"]

"""Job model for the sweep farm: content-addressed work units.

A *job* is one unit of pure work: a picklable payload executed by a
module-level worker function, identified by a **content key** — the
SHA-256 of every input that affects the result
(:func:`repro.harness.progcache.content_key`).  Content addressing is
what makes the farm's persistence sound: a journal entry saying "key K
is done with digest D" is a claim about *inputs*, so it stays valid
across process restarts, across sweeps sharing a ``--farm-dir``, and
across any interleaving of workers.

The scheduling knobs live in :class:`FarmConfig`; the retry backoff is
**seeded** (:func:`backoff_delay`) so a retried job waits the same
deterministic, jittered interval in every run — timing never feeds back
into results (workers are pure), but deterministic schedules keep farm
journals reproducible enough to diff.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List, Optional

#: Journal/result-store schema version.  Mixed into every content key a
#: farm client derives, so a schema change can never resurrect stale
#: results from an old farm directory.
SCHEMA = 2

#: Why an attempt failed (journal ``fail``/``quarantine`` records and
#: ``farm_retry``/``farm_quarantine`` event ``reason`` fields).
#: ``error`` = the worker raised or returned a failure result,
#: ``timeout`` = the attempt exceeded the per-cell wall clock,
#: ``crash`` = the worker process died without reporting (killed,
#: segfault, ``os._exit``).
FAIL_REASONS = ("error", "timeout", "crash")


class FarmError(RuntimeError):
    """Farm-level misuse or unrecoverable state (not a job failure)."""


@dataclass(frozen=True)
class Job:
    """One schedulable unit of work."""

    index: int      #: position in the caller's merge order
    key: str        #: content key (sha256 hex) of everything the result depends on
    payload: object  #: picklable argument for the worker function
    desc: str = ""   #: human label for journals/progress ("mxm/ccdp@4")


@dataclass
class JobOutcome:
    """Final state of one job after the farm is done with it."""

    job: Job
    result: object = None            #: worker return value (None if quarantined)
    error: Optional[str] = None      #: last attempt's failure text
    attempts: int = 0                #: attempts actually executed this run
    cached: bool = False             #: served from the journal, not executed
    quarantined: bool = False
    reason: Optional[str] = None     #: FAIL_REASONS entry when quarantined

    def describe(self) -> str:
        tag = self.job.desc or self.job.key[:12]
        if self.quarantined:
            last = (self.error or "").strip().splitlines()
            return (f"{tag}: QUARANTINED after {self.attempts} attempt(s) "
                    f"[{self.reason}]" + (f" ({last[-1]})" if last else ""))
        via = "journal" if self.cached else f"{self.attempts} attempt(s)"
        return f"{tag}: ok ({via})"


@dataclass(frozen=True)
class FarmConfig:
    """Execution policy for one :func:`repro.farm.run_farm` call."""

    jobs: int = 1                       #: worker processes (<=1 = in-process)
    farm_dir: Optional[str] = None      #: journal + result store root (None = ephemeral)
    resume: bool = False                #: require an existing journal to resume
    cell_timeout: Optional[float] = None  #: per-attempt wall clock (needs workers)
    max_retries: int = 0                #: retries after the first attempt
    backoff_base: float = 0.25          #: first retry delay (seconds), pre-jitter
    backoff_cap: float = 30.0           #: delay ceiling (seconds)
    backoff_seed: int = 0               #: jitter seed (deterministic schedules)
    requeue_quarantined: bool = False   #: re-execute journal-quarantined keys

    def validate(self) -> None:
        if self.resume and not self.farm_dir:
            raise FarmError("resume requires a farm_dir")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise FarmError(f"cell_timeout must be > 0: {self.cell_timeout}")
        if self.max_retries < 0:
            raise FarmError(f"max_retries must be >= 0: {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise FarmError("backoff_base/backoff_cap must be >= 0")


@dataclass
class FarmResult:
    """Everything one farm run produced, in job (merge) order."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    events: List[tuple] = field(default_factory=list)  #: obs farm_* tuples
    executed: int = 0      #: jobs that ran at least one attempt here
    cached: int = 0        #: jobs served from the journal/result store
    retries: int = 0       #: retry attempts scheduled this run
    quarantined: int = 0   #: jobs that ended quarantined (incl. replayed)

    @property
    def failed(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if o.quarantined]

    def summary(self) -> str:
        return (f"farm: {self.executed} executed, {self.cached} from journal, "
                f"{self.retries} retries, {self.quarantined} quarantined")


def backoff_delay(key: str, attempt: int, base: float = 0.25,
                  cap: float = 30.0, seed: int = 0) -> float:
    """Deterministic jittered exponential backoff before retry
    ``attempt + 1`` of ``key``.

    Doubles per failed attempt with a seeded jitter factor in
    ``[0.75, 1.25)`` — derived from ``(seed, key, attempt)`` alone, so
    the same cell backs off identically in every run, and the jitter
    band is narrow enough that successive delays are strictly
    increasing (``1.25 < 2 * 0.75``), which the CI smoke asserts.
    """
    h = zlib.crc32(f"{seed}|{key}|{attempt}".encode()) & 0xFFFFFFFF
    jitter = 0.75 + 0.5 * (h / 2**32)
    return min(cap, base * (2.0 ** (attempt - 1)) * jitter)


__all__ = ["SCHEMA", "FAIL_REASONS", "FarmError", "Job", "JobOutcome",
           "FarmConfig", "FarmResult", "backoff_delay"]

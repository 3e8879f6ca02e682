"""Differential conformance fuzzing for the whole CCDP pipeline.

One fuzz *cell* takes a generator seed and cross-checks everything the
repo promises about that program:

1. the CCDP transform's output passes the static safety verifier
   (:mod:`.safety`) with zero violations;
2. for every fuzzed version (the scheme registry's ``fuzz`` flag:
   seq/base/ccdp/naive plus the hardware protocols mesi and dir), the
   batched backend is bit-exact against the reference interpreter —
   stats, memory, full machine-event traces and metrics timelines —
   with the shadow coherence oracle armed on both;
3. that traced reference run's event stream folds back to the
   machine's live counters (:func:`repro.obs.fold.reconcile`);
4. final shared arrays agree bit-exactly across seq and every coherent
   parallel version — base, ccdp, mesi and dir (seq runs on one PE,
   per the harness convention) — each of which records zero stale
   hits, and the naive version — whenever it happens to see no stale
   value — also matches;
5. whenever naive *does* record stale hits, ccdp must still be clean on
   the same program: the transform protected what the cache alone
   would have corrupted.

A cell failure carries every mismatch string; :func:`shrink_failure`
delta-debugs the seed down to a minimal reproducer and serializes it
through the IR printer.  Cells are pure functions of (seed, n_pes), so
:func:`fuzz_seeds` fans them out through the sweep farm
(:mod:`repro.farm`) — the same journaled work queue as the experiment
sweep, which makes long campaigns resumable (``--farm-dir``/
``--resume``) and isolates crashing seeds via retry + quarantine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..coherence import CCDPConfig, ccdp_transform
from ..ir.program import Program
from ..machine.params import t3d
from ..runtime import SCHEMES, Version
from .gen import generate_with_choices
from .minimize import minimize_program
from .safety import verify_transform

#: default PE count for the parallel versions (seq always runs on 1)
DEFAULT_PES = 4

#: versions the differential battery exercises, straight from the
#: scheme registry (dir-lp/dir-pp opt out: they share the directory
#: code path and would only add cost per cell).
FUZZ_VERSIONS = tuple(v for v in Version.ALL if SCHEMES[v].fuzz)

#: fuzzed parallel versions that must match seq bit-exactly with zero
#: stale hits (every coherent scheme except the 1-PE seq baseline).
COHERENT_FUZZ = tuple(v for v in FUZZ_VERSIONS
                      if v in Version.COHERENT and v != Version.SEQ)


@dataclass
class FuzzResult:
    """Outcome of one fuzz cell (picklable — crosses the pool boundary)."""

    seed: int
    n_pes: int
    choices: str = ""                       #: GenChoices.describe()
    failures: Tuple[str, ...] = ()
    naive_stale: int = 0                    #: stale hits the cache alone took
    trace_events: int = 0                   #: events diffed across backends
    error: str = ""                         #: traceback when the cell crashed

    @property
    def ok(self) -> bool:
        return not self.failures and not self.error

    def describe(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        tail = f" ({len(self.failures)} failure(s))" if self.failures else ""
        if self.error:
            tail = f" (crashed: {self.error.strip().splitlines()[-1]})"
        return (f"seed {self.seed}: {verdict}{tail} "
                f"[naive_stale={self.naive_stale}, "
                f"trace_events={self.trace_events}]")


def check_program(program: Program, n_pes: int = DEFAULT_PES,
                  collect: Optional[dict] = None) -> List[str]:
    """Run the full differential battery on ``program``; returns the
    (possibly empty) list of failure strings.  ``collect``, when given,
    receives side-channel observations (naive stale hits, trace sizes)
    for reporting."""
    from ..harness.equivalence import compare_backends
    from ..obs.fold import reconcile

    failures: List[str] = []
    params = t3d(n_pes)
    config = CCDPConfig(machine=params)
    transformed, _ = ccdp_transform(program, config)

    report = verify_transform(program, transformed, config=config)
    for violation in report.violations:
        failures.append(f"verifier: {violation.describe()}")

    finals: Dict[str, Dict[str, np.ndarray]] = {}
    stale: Dict[str, int] = {}
    trace_events = 0
    for version in FUZZ_VERSIONS:
        prog_v = transformed if SCHEMES[version].transformed else program
        # Harness convention: the sequential baseline runs on one PE
        # (a multi-PE "seq" run is just an untransformed cached run —
        # i.e. naive — and stale by design).
        params_v = t3d(1 if version == Version.SEQ else n_pes)

        # One simulation per backend: the fold, value and stale checks
        # read the traced, oracle-armed reference run the diff used.
        eq = compare_backends(prog_v, params_v, version,
                              oracle=True, trace=True)
        for mismatch in eq.mismatches:
            failures.append(f"backend[{version}]: {mismatch}")
        trace_events += eq.trace_events

        machine = eq.result_ref.machine
        for mismatch in reconcile(eq.tracer_ref.events, machine):
            failures.append(f"fold[{version}]: {mismatch}")
        finals[version] = machine.memory.values
        stale[version] = machine.stats.total().stale_hits

    for version in COHERENT_FUZZ:
        if stale[version]:
            failures.append(f"stale[{version}]: {stale[version]} stale hits "
                            f"(must be coherent)")
        for name, expected in finals[Version.SEQ].items():
            got = finals[version][name]
            if not np.array_equal(expected, got):
                bad = int(np.flatnonzero(expected != got)[0])
                failures.append(
                    f"values[{version}]: {name}[{bad}] = {got[bad]!r}, "
                    f"seq has {expected[bad]!r}")
    # The naive version keeps stale lines by design; it must only agree
    # with seq on the (rare) programs where no stale value was consumed.
    if stale[Version.NAIVE] == 0:
        for name, expected in finals[Version.SEQ].items():
            if not np.array_equal(expected, finals[Version.NAIVE][name]):
                failures.append(
                    f"values[naive]: {name} differs from seq despite "
                    f"zero stale hits")

    if collect is not None:
        collect["naive_stale"] = stale[Version.NAIVE]
        collect["trace_events"] = trace_events
    return failures


def run_fuzz_cell(payload: Tuple[int, int]) -> FuzzResult:
    """Pool worker: one (seed, n_pes) cell.  Never raises — a crashing
    cell ships its traceback home in :attr:`FuzzResult.error`."""
    import traceback

    seed, n_pes = payload
    try:
        program, choices = generate_with_choices(seed)
        observed: dict = {}
        failures = check_program(program, n_pes, collect=observed)
        return FuzzResult(seed=seed, n_pes=n_pes,
                          choices=choices.describe(),
                          failures=tuple(failures),
                          naive_stale=observed.get("naive_stale", 0),
                          trace_events=observed.get("trace_events", 0))
    except Exception:
        return FuzzResult(seed=seed, n_pes=n_pes,
                          error=traceback.format_exc())


def fuzz_key(seed: int, n_pes: int) -> str:
    """Content key of one fuzz cell (seed fully determines the program;
    the battery is pure given (seed, n_pes))."""
    from ..farm import SCHEMA
    from ..harness.progcache import content_key

    return content_key("fuzz", SCHEMA, seed, n_pes)


def _fuzz_failure(result: FuzzResult) -> Optional[str]:
    """Farm ``failure_of`` hook: a *crashed* cell is an infrastructure
    failure worth retrying/quarantining; differential mismatches are
    findings — they commit as results."""
    return result.error or None


def fuzz_seeds(seeds: Sequence[int], n_pes: int = DEFAULT_PES,
               jobs: int = 1, progress=None, farm=None,
               collect: Optional[dict] = None) -> List[FuzzResult]:
    """Run one cell per seed, optionally across ``jobs`` processes.
    Results come back in seed order regardless of worker scheduling.

    With a :class:`repro.farm.FarmConfig` the campaign is journaled:
    a killed run resumes replaying only unfinished seeds, finished
    seeds dedup across campaigns sharing a farm dir, and a crashing
    cell is retried with seeded backoff then quarantined (surfacing as
    a :class:`FuzzResult` with :attr:`FuzzResult.error` set) instead of
    aborting the campaign.  ``collect`` receives the farm's
    :class:`~repro.farm.FarmResult` under ``"farm"``.
    """
    from ..farm import FarmConfig, Job, run_farm

    payloads = [(seed, n_pes) for seed in seeds]
    jobs_list = [Job(index=i, key=fuzz_key(seed, n_pes),
                     payload=(seed, n_pes), desc=f"seed {seed}")
                 for i, (seed, n_pes) in enumerate(payloads)]

    def farm_progress(done, total, outcome):
        progress(done, total, outcome.result if outcome.result is not None
                 else FuzzResult(seed=jobs_list[outcome.job.index]
                                 .payload[0],
                                 n_pes=n_pes, error=outcome.error or ""))

    result = run_farm(run_fuzz_cell, jobs_list,
                      farm or FarmConfig(jobs=jobs),
                      failure_of=_fuzz_failure,
                      progress=farm_progress if progress is not None
                      else None)
    if collect is not None:
        collect["farm"] = result
    out: List[FuzzResult] = []
    for (seed, pes), outcome in zip(payloads, result.outcomes):
        if outcome.quarantined:
            out.append(FuzzResult(seed=seed, n_pes=pes,
                                  error=outcome.error or
                                  f"quarantined ({outcome.reason})"))
        else:
            out.append(outcome.result)
    return out


def shrink_failure(seed: int, n_pes: int = DEFAULT_PES,
                   max_trials: int = 400) -> Tuple[Program, str]:
    """Delta-debug a failing seed to a minimal reproducer.

    The predicate is "the differential battery still fails" — any
    failure keeps a candidate, so the shrinker may walk from one
    manifestation to another of the same seed, but never to a passing
    program.  Returns the shrunk program and its DSL text."""
    from ..ir.printer import format_program

    program, _ = generate_with_choices(seed)
    small = minimize_program(
        program, lambda p: bool(check_program(p, n_pes)),
        max_trials=max_trials)
    return small, format_program(small)


__all__ = ["COHERENT_FUZZ", "DEFAULT_PES", "FUZZ_VERSIONS", "FuzzResult",
           "check_program", "run_fuzz_cell", "fuzz_key", "fuzz_seeds",
           "shrink_failure"]

"""Process-parallel sweep engine for the experiment grid, farm-backed.

A paper reproduction sweep is an embarrassingly parallel grid: every
(workload, version, PE count) cell is an independent simulation whose
result depends only on its own inputs.  This module turns that grid
into content-addressed jobs and fans them out through the sweep farm
(:mod:`repro.farm`) while keeping the output *byte-identical* to the
serial sweep:

* **Deterministic cell order.**  Cells are enumerated in the exact
  order :meth:`ExperimentRunner.sweep` runs them (per workload: SEQ
  first, then PE-major, version-minor) and results are merged back by
  cell index, so the assembled :class:`Sweep` objects never depend on
  worker scheduling, retry timing, or which cells a resume replayed.
* **Deterministic cell seeds.**  A faulted sweep derives each cell's
  fault seed from a stable hash of (base seed, workload, version, PE
  count) — the same cell gets the same fault schedule no matter which
  worker runs it, at any job count, on any retry attempt.
* **Content-addressed cells.**  :func:`cell_key` hashes every input
  that affects a cell's :class:`RunRecord` (workload, effective sizes,
  version, PEs, backend, overrides, derived fault seed).  With a
  ``farm_dir`` the farm journals results under these keys, so a killed
  sweep resumes replaying only unfinished cells and sweeps sharing a
  farm dir dedup identical cells.
* **Failure surfacing.**  A crashing cell never wedges the pool.
  Without a farm config, :func:`sweep_grid` raises one
  :class:`SweepError` naming every failed cell with its coordinates,
  content key, a ready-to-paste ``ccdp run`` repro line, and the
  traceback.  With a farm config, failing cells are retried with
  seeded backoff, then *quarantined*: the rest of the grid completes
  and the quarantined cells surface in :attr:`Sweep.failed`.

``jobs <= 1`` runs the identical code path in-process (no pool), which
is both the fallback and the determinism reference.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..farm import SCHEMA, FarmConfig, FarmError, Job, JobOutcome
from ..farm import run_farm as _run_farm
from ..runtime import Version
from .experiment import PAPER_PE_COUNTS, ExperimentRunner, RunRecord, Sweep
from .progcache import content_key

ProgressFn = Callable[[int, int, str], None]


@dataclass(frozen=True)
class SweepSpec:
    """Hashable description of one workload's sweep (picklable, so it can
    cross the process boundary; hashable, so workers can key their
    per-process runner cache on it)."""

    workload: str
    size_args: Tuple[Tuple[str, int], ...] = ()
    pe_counts: Tuple[int, ...] = PAPER_PE_COUNTS
    versions: Tuple[str, ...] = (Version.BASE, Version.CCDP)
    backend: str = "reference"
    check: bool = True
    param_overrides: Tuple[Tuple[str, float], ...] = ()
    ccdp_overrides: Tuple[Tuple[str, object], ...] = ()
    fault_spec: Optional[str] = None   #: ``--faults`` spec/preset, or None
    fault_seed: int = 0                #: base seed; cells derive their own

    @classmethod
    def create(cls, workload: str, size_args: Optional[Dict[str, int]] = None,
               pe_counts: Sequence[int] = PAPER_PE_COUNTS,
               versions: Sequence[str] = (Version.BASE, Version.CCDP),
               backend: str = "reference", check: bool = True,
               param_overrides: Optional[Dict[str, float]] = None,
               ccdp_overrides: Optional[Dict[str, object]] = None,
               fault_spec: Optional[str] = None,
               fault_seed: int = 0) -> "SweepSpec":
        """Build a spec from plain dict/sequence options."""
        as_items = lambda d: tuple(sorted((d or {}).items()))
        return cls(workload=workload, size_args=as_items(size_args),
                   pe_counts=tuple(pe_counts), versions=tuple(versions),
                   backend=backend, check=check,
                   param_overrides=as_items(param_overrides),
                   ccdp_overrides=as_items(ccdp_overrides),
                   fault_spec=fault_spec, fault_seed=fault_seed)


@dataclass(frozen=True)
class Cell:
    """One grid point: a single (workload, version, PE count) run."""

    index: int     #: global position in the serial sweep order
    workload: str
    version: str
    n_pes: int

    def describe(self) -> str:
        return f"{self.workload}/{self.version}@{self.n_pes}"


@dataclass
class FailedCell:
    """A cell the farm gave up on, with everything needed to re-run it
    in isolation."""

    cell: Cell
    spec: SweepSpec
    key: str                 #: the cell's content key (journal/result id)
    attempts: int
    reason: str              #: error | timeout | crash
    error: str               #: last attempt's traceback / failure text

    def repro_command(self) -> str:
        """A ready-to-paste ``ccdp run`` line reproducing this cell alone
        (fault seed pre-derived, so the standalone run realises the
        exact schedule the sweep cell did)."""
        parts = [f"python -m repro.harness run {self.cell.workload}",
                 f"--version {self.cell.version}",
                 f"--pes {self.cell.n_pes}"]
        for name, value in self.spec.size_args:
            parts.append(f"--{name} {value}")
        if self.spec.backend != "reference":
            parts.append(f"--backend {self.spec.backend}")
        if not self.spec.check:
            parts.append("--no-check")
        if self.spec.fault_spec:
            parts.append(f"--faults '{self.spec.fault_spec}' --fault-seed "
                         f"{cell_fault_seed(self.spec.fault_seed, self.cell)}")
        return " ".join(parts)

    def describe(self) -> str:
        last = self.error.strip().splitlines()
        return (f"{self.cell.describe()}: FAILED after {self.attempts} "
                f"attempt(s) [{self.reason}]"
                + (f" ({last[-1]})" if last else ""))


class SweepError(RuntimeError):
    """One or more sweep cells failed; carries every cell's coordinates,
    content key, repro command and traceback."""

    def __init__(self, failures: List[FailedCell]) -> None:
        self.failures = failures
        names = ", ".join(f.cell.describe() for f in failures)
        detail = "\n\n".join(
            f"--- {f.cell.describe()} (key {f.key[:16]}) ---\n"
            f"repro: {f.repro_command()}\n{f.error.rstrip()}"
            for f in failures)
        super().__init__(
            f"{len(failures)} sweep cell(s) failed: {names}\n{detail}")


def cell_fault_seed(base_seed: int, cell: Cell) -> int:
    """Stable per-cell fault seed: equal cells get equal schedules at any
    job count; distinct cells get decorrelated streams."""
    tag = f"{base_seed}|{cell.workload}|{cell.version}|{cell.n_pes}"
    return zlib.crc32(tag.encode()) & 0x7FFFFFFF


def cell_key(spec: SweepSpec, cell: Cell) -> str:
    """Content key of one cell: canonical hash of every input its
    :class:`RunRecord` depends on.  Size arguments are resolved against
    the workload defaults first, so an explicit ``n=<default>`` and the
    default spelling address the same result."""
    fault = None
    if spec.fault_spec:
        fault = (spec.fault_spec, cell_fault_seed(spec.fault_seed, cell))
    try:
        sizes = _sized_args(spec)
    except Exception:
        # Unknown workload: keep the raw sizes so the key still exists
        # and the cell can fail (and be journaled) like any other.
        sizes = dict(spec.size_args)
    return content_key(
        "cell", SCHEMA, cell.workload, sizes, cell.version,
        cell.n_pes, spec.backend, spec.check, spec.param_overrides,
        spec.ccdp_overrides, fault)


def plan_cells(specs: Sequence[SweepSpec]) -> List[Tuple[SweepSpec, Cell]]:
    """Enumerate the grid in serial-sweep order (the determinism anchor:
    result merging relies on this order, never on completion order)."""
    cells: List[Tuple[SweepSpec, Cell]] = []
    index = 0
    for spec in specs:
        cells.append((spec, Cell(index, spec.workload, Version.SEQ, 1)))
        index += 1
        for n_pes in spec.pe_counts:
            for version in spec.versions:
                cells.append((spec, Cell(index, spec.workload, version, n_pes)))
                index += 1
    return cells


# -- worker side ---------------------------------------------------------------

#: Per-process runner cache.  Keyed by the (hashable) SweepSpec so one
#: worker servicing many cells of the same sweep builds the program and
#: oracle once; safe because runners are only ever used for pure runs.
_RUNNERS: Dict[SweepSpec, ExperimentRunner] = {}


def _runner_for(spec: SweepSpec) -> ExperimentRunner:
    if spec not in _RUNNERS:
        from ..workloads import workload
        _RUNNERS[spec] = ExperimentRunner(
            workload(spec.workload), dict(spec.size_args),
            dict(spec.param_overrides), dict(spec.ccdp_overrides),
            check=spec.check)
    return _RUNNERS[spec]


def _trapdoors(cell: Cell) -> None:
    """Test/CI hooks: make a named cell crash or hang, so supervision
    paths are exercisable end to end.  ``REPRO_SWEEP_CRASH_CELL`` names
    cells (comma list of ``workload/version@pes``) whose worker dies
    without reporting; ``REPRO_SWEEP_HANG_CELL`` names cells that hang
    until the per-cell timeout reaps them.  Only meaningful under
    ``--jobs >= 2`` / a cell timeout (worker processes)."""
    crash = os.environ.get("REPRO_SWEEP_CRASH_CELL", "")
    if crash and cell.describe() in {c.strip() for c in crash.split(",")}:
        os._exit(3)
    hang = os.environ.get("REPRO_SWEEP_HANG_CELL", "")
    if hang and cell.describe() in {c.strip() for c in hang.split(",")}:
        time.sleep(3600)


def _run_cell(payload: Tuple[SweepSpec, Cell]):
    """Execute one grid cell; never raises.  Returns
    ``(RunRecord, None)`` on success or ``(None, traceback_text)`` on
    failure — the farm's ``failure_of`` hook turns the latter into
    retries/quarantine.  The return value is index-free so identical
    cells from different grids share one journaled result."""
    import traceback

    spec, cell = payload
    try:
        _trapdoors(cell)
        fault_plan = None
        if spec.fault_spec:
            from ..faults import parse_fault_plan
            fault_plan = parse_fault_plan(
                spec.fault_spec, seed=cell_fault_seed(spec.fault_seed, cell))
        runner = _runner_for(spec)
        record = runner.run_version(cell.version, cell.n_pes,
                                    backend=spec.backend,
                                    fault_plan=fault_plan)
        # CCDPReport is a rich object graph that is expensive to pickle
        # and not needed per-cell (report generation re-derives it from a
        # runner); stripping it on BOTH the serial and parallel paths
        # keeps the two byte-identical.
        record.ccdp_report = None
        return record, None
    except Exception:
        return None, traceback.format_exc()


def _cell_failure(result) -> Optional[str]:
    """Farm ``failure_of`` hook for sweep cells."""
    return result[1]


# -- parent side ---------------------------------------------------------------

def run_pool(worker, payloads: Sequence, jobs: int = 1,
             progress: Optional[Callable[[int, int, object], None]] = None
             ) -> List:
    """Order-preserving map of ``worker`` over ``payloads``, optionally
    across ``jobs`` processes (ephemeral farm run: no journal, no
    retries).

    This is the shared fan-out engine for any embarrassingly-parallel
    grid.  ``worker`` must be a module-level callable of one payload
    (so it pickles by reference) that never raises — failures travel
    inside its return value; a worker that *does* raise surfaces as
    :class:`~repro.farm.FarmError`.  Every result is round-tripped
    through pickle on both the serial and pool paths, which keeps
    ``jobs=1`` and ``jobs=N`` byte-identical (tests rely on this).
    ``progress`` (when given) is called as
    ``progress(done, total, result)`` after every cell.
    """
    jobs_list = [Job(index=i, key=f"pool-{i}", payload=payload,
                     desc=f"job {i}")
                 for i, payload in enumerate(payloads)]

    def farm_progress(done: int, total: int, outcome: JobOutcome) -> None:
        progress(done, total, outcome.result)

    farm = _run_farm(worker, jobs_list, FarmConfig(jobs=jobs),
                     progress=farm_progress if progress is not None else None)
    for outcome in farm.failed:
        raise FarmError(f"{outcome.job.desc} raised:\n{outcome.error}")
    return [outcome.result for outcome in farm.outcomes]


def _sized_args(spec: SweepSpec) -> Dict[str, int]:
    """The effective size arguments (defaults + applicable overrides),
    mirroring ExperimentRunner's filtering without building anything."""
    from ..workloads import workload
    defaults = workload(spec.workload).default_args
    overrides = {k: v for k, v in dict(spec.size_args).items()
                 if k in defaults}
    return {**defaults, **overrides}


def sweep_grid(specs: Sequence[SweepSpec], jobs: int = 1,
               progress: Optional[ProgressFn] = None,
               farm: Optional[FarmConfig] = None,
               collect: Optional[dict] = None) -> List[Sweep]:
    """Run every spec's full grid through the farm.

    Returns one :class:`Sweep` per spec, in spec order, with records
    identical (bit-for-bit, including pickled form) to a serial
    ``ExperimentRunner.sweep`` — see the module docstring for how.

    Without ``farm``, runs an ephemeral strict grid (``jobs`` worker
    processes, no journal) and raises :class:`SweepError` if any cell
    failed.  With a :class:`~repro.farm.FarmConfig`, journaling/resume/
    dedup, timeouts and retries apply, and cells that end quarantined
    land in :attr:`Sweep.failed` instead of aborting the grid.
    ``collect`` (a dict, when given) receives the
    :class:`~repro.farm.FarmResult` under ``"farm"``.
    """
    strict = farm is None
    config = farm or FarmConfig(jobs=jobs)
    payloads = plan_cells(specs)
    jobs_list = [Job(index=cell.index, key=cell_key(spec, cell),
                     payload=(spec, cell), desc=cell.describe())
                 for spec, cell in payloads]

    def farm_progress(done: int, total: int, outcome: JobOutcome) -> None:
        progress(done, total, _outcome_text(outcome))

    result = _run_farm(_run_cell, jobs_list, config,
                       failure_of=_cell_failure,
                       progress=farm_progress if progress is not None
                       else None)
    if collect is not None:
        collect["farm"] = result

    failures: List[FailedCell] = []
    by_index: Dict[int, Optional[RunRecord]] = {}
    for (spec, cell), outcome in zip(payloads, result.outcomes):
        if outcome.quarantined:
            failures.append(FailedCell(
                cell=cell, spec=spec, key=outcome.job.key,
                attempts=outcome.attempts, reason=outcome.reason or "error",
                error=outcome.error or ""))
            by_index[cell.index] = None
        else:
            by_index[cell.index] = outcome.result[0]
    if failures and strict:
        raise SweepError(failures)

    failed_by_index = {f.cell.index: f for f in failures}
    sweeps: List[Sweep] = []
    cursor = 0
    for spec in specs:
        try:
            sized = _sized_args(spec)
        except Exception:
            sized = dict(spec.size_args)
        sweep = Sweep(workload=spec.workload, size_args=sized)
        n_cells = 1 + len(spec.pe_counts) * len(spec.versions)
        for _, cell in payloads[cursor:cursor + n_cells]:
            record = by_index[cell.index]
            if cell.index in failed_by_index:
                sweep.failed[(cell.version, cell.n_pes)] = \
                    failed_by_index[cell.index]
            elif cell.version == Version.SEQ:
                sweep.seq = record
            else:
                sweep.runs[(cell.version, cell.n_pes)] = record
        cursor += n_cells
        sweeps.append(sweep)
    return sweeps


def _outcome_text(outcome: JobOutcome) -> str:
    if outcome.quarantined:
        return outcome.describe()
    record = outcome.result[0]
    return record.describe() + (" [journal]" if outcome.cached else "")


__all__ = ["SweepSpec", "Cell", "FailedCell", "SweepError",
           "cell_fault_seed", "cell_key", "plan_cells", "run_pool",
           "sweep_grid"]

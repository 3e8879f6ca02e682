"""Experiment runner: builds, transforms, executes and checks the
paper's program versions across PE counts.

The methodology mirrors the paper §5.2: each application is built once,
derived into BASE (CRAFT-style, shared data uncached) and CCDP
(transformed by the compiler, shared data cached) versions, executed at
each PE count, and timed against the sequential execution (SEQ).
Additionally every run is validated against the workload's NumPy oracle
and the CCDP runs are *required* to be coherent (zero stale reads) —
something the paper could only argue, but the simulator can prove.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..coherence import CCDPReport
from ..machine.params import MachineParams, t3d
from ..runtime import SCHEMES, Version, run_program
from ..workloads.base import WorkloadSpec, check_result
from . import progcache

PAPER_PE_COUNTS = (1, 2, 4, 8, 16, 32, 64)

#: Experiments run scaled-down problem sizes (DESIGN.md substitutions),
#: so the cache is scaled proportionally to stay in the paper's regime
#: (arrays much larger than one PE's cache).  8 KB / 4 matches the
#: roughly 8-16x linear problem-size scaling.
SCALED_CACHE_BYTES = 2048


@dataclass
class RunRecord:
    """One (workload, version, PE count) execution."""

    workload: str
    version: str
    n_pes: int
    elapsed: float
    stale_reads: int
    correct: bool
    error: Optional[str]
    stats: Dict[str, float]
    ccdp_report: Optional[CCDPReport] = None
    fault_stats: Optional[Dict[str, float]] = None  #: when a plan was active
    oracle_summary: Optional[str] = None            #: when the oracle ran
    backend: str = "reference"
    batch_chunks: int = 0        #: chunks the batched backend bulk-executed
    batch_fallbacks: int = 0     #: chunks that bound but fell back at run time
    fault_fallbacks: int = 0     #: chunks routed to the reference path by faults
    batched_coverage: float = 0.0  #: fraction of refs served by batched plans
    fallback_reasons: Dict[str, int] = field(default_factory=dict)
    """Per-reason fallback/skip taxonomy (see BatchedInterpreter._fall)."""

    def describe(self) -> str:
        status = "ok" if self.correct else f"WRONG ({self.error})"
        text = (f"{self.workload}/{self.version} @ {self.n_pes} PEs: "
                f"{self.elapsed:.0f} cycles, {status}")
        if self.backend != "reference":
            text += (f" [{self.backend}: {self.batched_coverage:.0%} coverage, "
                     f"{self.batch_fallbacks + self.fault_fallbacks} fallbacks]")
            if self.fallback_reasons:
                detail = ", ".join(f"{k}:{v}" for k, v in
                                   sorted(self.fallback_reasons.items()))
                text += f" ({detail})"
        return text


@dataclass
class Sweep:
    """All runs of one workload across versions and PE counts."""

    workload: str
    size_args: Dict[str, int]
    seq: RunRecord = None  # type: ignore[assignment]
    runs: Dict[Tuple[str, int], RunRecord] = field(default_factory=dict)
    #: quarantined cells, keyed like ``runs`` (SEQ under (seq, 1)) —
    #: populated by farm-mode ``sweep_grid`` instead of aborting the grid
    failed: Dict[Tuple[str, int], object] = field(default_factory=dict)

    def record(self, version: str, n_pes: int) -> RunRecord:
        return self.runs[(version, n_pes)]

    def speedup(self, version: str, n_pes: int) -> float:
        return self.seq.elapsed / self.record(version, n_pes).elapsed

    def improvement(self, n_pes: int) -> float:
        """% improvement in execution time of CCDP over BASE (Table 2)."""
        base = self.record(Version.BASE, n_pes).elapsed
        ccdp = self.record(Version.CCDP, n_pes).elapsed
        return 100.0 * (base - ccdp) / base

    def pe_counts(self) -> List[int]:
        return sorted({n for (_, n) in self.runs})

    def complete_pes(self) -> List[int]:
        """PE counts with both a BASE and a CCDP record (improvement is
        only defined on these; quarantined cells leave gaps)."""
        return [n for n in self.pe_counts()
                if (Version.BASE, n) in self.runs
                and (Version.CCDP, n) in self.runs]

    def all_correct(self) -> bool:
        return (not self.failed and self.seq is not None and self.seq.correct
                and all(r.correct for r in self.runs.values()))


class ExperimentRunner:
    """Caches programs/oracles and executes version runs on demand."""

    def __init__(self, spec: WorkloadSpec, size_args: Optional[Dict[str, int]] = None,
                 param_overrides: Optional[Dict[str, float]] = None,
                 ccdp_overrides: Optional[Dict[str, object]] = None,
                 check: bool = True) -> None:
        self.spec = spec
        # Ignore size keys the workload does not take (e.g. a harness-wide
        # --steps applied to MXM/VPENTA, which have no time loop).
        overrides = {k: v for k, v in (size_args or {}).items()
                     if k in spec.default_args}
        self.size_args = {**spec.default_args, **overrides}
        self.param_overrides = {"cache_bytes": SCALED_CACHE_BYTES,
                                **(param_overrides or {})}
        self.ccdp_overrides = dict(ccdp_overrides or {})
        self.check = check
        self.program = progcache.get_program(spec, self.size_args)
        self.oracle = progcache.get_oracle(spec, self.size_args) if check else {}

    # ------------------------------------------------------------------
    def params_for(self, n_pes: int) -> MachineParams:
        return t3d(n_pes, **self.param_overrides)

    def ccdp_program(self, n_pes: int):
        """CCDP-transformed program for a PE count (the transform sees the
        machine description, so it is PE-count specific).  Served by the
        content-addressed :mod:`.progcache`, so equal (program, machine,
        overrides) inputs share one transform across runners."""
        return progcache.get_transform(
            self.spec.name, self.size_args, self.program,
            self.params_for(n_pes), self.ccdp_overrides)

    # ------------------------------------------------------------------
    def run_version(self, version: str, n_pes: int,
                    on_stale: str = "record",
                    backend: str = "reference",
                    fault_plan=None, oracle: bool = False) -> RunRecord:
        report: Optional[CCDPReport] = None
        if SCHEMES[version].transformed:
            program, report = self.ccdp_program(n_pes)
        else:
            program = self.program
        params = self.params_for(1 if version == Version.SEQ else n_pes)
        result = run_program(program, params, version, on_stale=on_stale,
                             backend=backend, fault_plan=fault_plan,
                             oracle=oracle)
        error = None
        if self.check:
            error = check_result(
                {a: result.value_of(a) for a in self.spec.check_arrays},
                self.oracle, self.spec.check_arrays)
        return RunRecord(
            workload=self.spec.name, version=version, n_pes=params.n_pes,
            elapsed=result.elapsed, stale_reads=result.stats.stale_reads,
            correct=error is None, error=error,
            stats=result.stats.as_dict(), ccdp_report=report,
            fault_stats=(None if result.fault_stats is None
                         else result.fault_stats.as_dict()),
            oracle_summary=(None if result.oracle is None
                            else result.oracle.summary()),
            backend=backend,
            batch_chunks=result.batch_chunks,
            batch_fallbacks=result.batch_fallbacks,
            fault_fallbacks=result.fault_fallbacks,
            batched_coverage=result.batched_coverage,
            fallback_reasons=dict(result.fallback_reasons))

    def sweep(self, pe_counts: Sequence[int] = PAPER_PE_COUNTS,
              versions: Sequence[str] = (Version.BASE, Version.CCDP)) -> Sweep:
        sweep = Sweep(workload=self.spec.name, size_args=dict(self.size_args))
        sweep.seq = self.run_version(Version.SEQ, 1)
        for n_pes in pe_counts:
            for version in versions:
                sweep.runs[(version, n_pes)] = self.run_version(version, n_pes)
        return sweep


def run_sweep(spec: WorkloadSpec, pe_counts: Sequence[int] = PAPER_PE_COUNTS,
              size_args: Optional[Dict[str, int]] = None,
              param_overrides: Optional[Dict[str, float]] = None,
              ccdp_overrides: Optional[Dict[str, object]] = None,
              check: bool = True) -> Sweep:
    """Convenience wrapper: full BASE+CCDP sweep for one workload."""
    runner = ExperimentRunner(spec, size_args, param_overrides,
                              ccdp_overrides, check=check)
    return runner.sweep(pe_counts)


__all__ = ["RunRecord", "Sweep", "ExperimentRunner", "run_sweep",
           "PAPER_PE_COUNTS", "SCALED_CACHE_BYTES"]

"""The CCDP compiler driver: one call transforms a parallel program for
coherent execution with cached shared data.

Pipeline (paper §3.2):

1. inline parallelism-carrying calls (so epochs are materialised);
2. **stale reference analysis** over the epoch flow graph;
3. **prefetch target analysis** (Fig. 1);
4. **prefetch scheduling** (Fig. 2) + correctness code generation
   (invalidate-before-prefetch, bypass demotions, pre-call
   invalidations for stale interprocedural summaries);
5. validation of the transformed IR.

The input program is never mutated; the transformed clone plus a full
:class:`CCDPReport` are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis.epochs import RefInfo, build_epoch_graph
from ..analysis.parcheck import ParCheckResult, check_doall_independence
from ..analysis.stale import StaleAnalysisResult, analyse_stale_references
from ..ir.expr import RefMode
from ..ir.program import Program
from ..ir.validate import validate_program
from .config import CCDPConfig
from .inline import inline_parallel_calls
from .nonstale import add_nonstale_targets
from .scheduling import ScheduleReport, schedule_prefetches
from .target_analysis import TargetAnalysisResult, prefetch_target_analysis


@dataclass
class CCDPReport:
    """Everything the CCDP pipeline decided, for inspection/reporting."""

    stale: StaleAnalysisResult
    targets: TargetAnalysisResult
    schedule: ScheduleReport
    independence: Optional[ParCheckResult] = None
    inlined_calls: int = 0
    nonstale_targets: int = 0

    def summary(self) -> str:
        lines = [
            f"stale analysis : {self.stale.summary()}",
            f"target analysis: {self.targets.summary()}",
            f"scheduling     : {self.schedule.summary()}",
        ]
        if self.independence is not None:
            lines.insert(0, f"parallelism    : {self.independence.summary()}")
        return "\n".join(lines)


def ccdp_transform(program: Program,
                   config: Optional[CCDPConfig] = None) -> Tuple[Program, CCDPReport]:
    """Apply the full CCDP scheme; returns (transformed clone, report)."""
    config = config or CCDPConfig()
    transformed = program.clone()

    # Sanity-check the epoch model's core assumption before relying on it:
    # DOALL tasks must be independent (the original toolchain's Polaris
    # guaranteed this; we re-derive it with a GCD/bounds dependence test).
    independence = check_doall_independence(transformed)

    inlined = inline_parallel_calls(transformed)

    graph = build_epoch_graph(transformed)
    stale = analyse_stale_references(transformed, graph)
    targets = prefetch_target_analysis(transformed, stale, config)

    nonstale_count = 0
    if config.prefetch_nonstale:
        nonstale_count = add_nonstale_targets(transformed, graph, stale,
                                              targets, config)

    # Code generation part 1: coherence demotions decided by Fig. 1.
    for info in targets.demoted_bypass:
        info.ref.mode = RefMode.BYPASS
    _insert_call_invalidations(transformed, targets.stale_calls)

    # Code generation part 2: Fig. 2 scheduling (inserts prefetches,
    # pipelines loops, demotes unplaceable targets to bypass).
    schedule = schedule_prefetches(transformed, targets, config)

    validate_program(transformed)
    report = CCDPReport(stale=stale, targets=targets, schedule=schedule,
                        independence=independence, inlined_calls=inlined,
                        nonstale_targets=nonstale_count)
    return transformed, report


def _insert_call_invalidations(program: Program, stale_calls: List[RefInfo]) -> None:
    """A potentially-stale read buried inside a serial callee: invalidate
    the whole (summarised) array section before the call so the callee's
    cached reads miss to fresh memory."""
    from ..ir.expr import IntConst as IC
    from ..ir.stmt import CallStmt, InvalidateLines, Stmt

    done = set()
    for info in stale_calls:
        call = info.stmt
        key = (call.uid, info.decl.name)
        if key in done:
            continue
        done.add(key)
        decl = info.decl
        inv = InvalidateLines(decl.name, [IC(1) for _ in decl.shape],
                              decl.rank - 1, IC(decl.shape[-1]))
        # Wide invalidation: flatten to "whole array" semantics by walking
        # the slowest axis over its full extent; the runtime invalidates
        # the covering address range.
        _insert_before(program, call, inv)


def _insert_before(program: Program, anchor, stmt) -> bool:
    """Insert ``stmt`` immediately before ``anchor`` wherever it lives."""
    for proc in program.procedures.values():
        if _insert_in_body(proc.body, anchor, stmt):
            return True
    return False


def _insert_in_body(body, anchor, stmt) -> bool:
    for index, child in enumerate(body):
        if child is anchor:
            body.insert(index, stmt)
            return True
        for nested in child.bodies():
            if _insert_in_body(nested, anchor, stmt):
                return True
    return False


__all__ = ["CCDPReport", "ccdp_transform"]

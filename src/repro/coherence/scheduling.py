"""Prefetch scheduling — the paper's Figure 2 algorithm.

For each inner loop or serial code segment (LSC) holding prefetch
targets, dispatch on the LSC kind and apply the scheduling techniques in
the prescribed order:

====  ==========================================  =======================
case  LSC kind                                    technique order
====  ==========================================  =======================
1     serial loop, known bounds                   VPG, SP, MBP
1b    serial loop, unknown bounds                 SP, MBP
2     parallel DOALL, static schedule, known      VPG, MBP
2b    parallel DOALL, static schedule, unknown    MBP
3     parallel DOALL, dynamic schedule            MBP
4     serial code section                         MBP
5     loop containing IF statements               MBP (bounded by branch)
6     LSC inside an IF branch                     as 1-4, within branch
====  ==========================================  =======================

Any target no technique can place is demoted to a bypass-cache read,
which preserves coherence unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ir.loops import LSC, contains_if, has_static_bounds
from ..ir.program import Program
from ..ir.stmt import LoopKind, ScheduleKind
from .config import CCDPConfig
from .moveback import MBPOutcome, apply_move_back
from .software_pipeline import SPOutcome, try_software_pipeline
from .target_analysis import PrefetchTarget, TargetAnalysisResult
from .vector_prefetch import VPGOutcome, try_vector_prefetch


@dataclass
class LSCSchedule:
    """Scheduling decision record for one LSC."""

    lsc: LSC
    case: str
    vpg: List[VPGOutcome] = field(default_factory=list)
    sp: Optional[SPOutcome] = None
    mbp: List[MBPOutcome] = field(default_factory=list)

    def techniques_used(self) -> Dict[str, int]:
        out = {"vpg": len(self.vpg),
               "sp": len(self.sp.targets) if self.sp else 0,
               "mbp_moved": sum(1 for m in self.mbp if m.moved),
               "bypass": sum(1 for m in self.mbp if not m.moved)}
        return out


@dataclass
class ScheduleReport:
    """Whole-program scheduling outcome."""

    entries: List[LSCSchedule] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        totals = {"vpg": 0, "sp": 0, "mbp_moved": 0, "bypass": 0}
        for entry in self.entries:
            for key, value in entry.techniques_used().items():
                totals[key] += value
        return totals

    def cases(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for entry in self.entries:
            out[entry.case] = out.get(entry.case, 0) + 1
        return out

    def summary(self) -> str:
        counts = self.counts()
        return (f"scheduled {len(self.entries)} LSCs: "
                f"{counts['vpg']} targets via vector prefetch, "
                f"{counts['sp']} via software pipelining, "
                f"{counts['mbp_moved']} via move-back, "
                f"{counts['bypass']} dropped to bypass reads")


def schedule_prefetches(program: Program, analysis: TargetAnalysisResult,
                        config: CCDPConfig) -> ScheduleReport:
    """Run Fig. 2 over every LSC with prefetch targets, transforming the
    program in place."""
    report = ScheduleReport()
    for lsc, targets in analysis.targets_by_lsc():
        entry = _schedule_lsc(program, lsc, targets, config)
        report.entries.append(entry)
    return report


def _schedule_lsc(program: Program, lsc: LSC, targets: List[PrefetchTarget],
                  config: CCDPConfig) -> LSCSchedule:
    case = _classify_case_base(lsc)
    entry = LSCSchedule(lsc=lsc, case=_classify_case(lsc))

    if case in ("case4-serial-section", "case3-doall-dynamic",
                "case5-loop-with-if", "case2b-doall-unknown-bounds"):
        entry.mbp = [apply_move_back(t, config) for t in targets]
        return entry

    if case in ("case2-doall-static", ):
        remaining = []
        for target in targets:
            outcome = try_vector_prefetch(target, config, program) if config.enable_vpg else None
            if outcome is not None:
                entry.vpg.append(outcome)
                _cover_group(program, target, config)
            else:
                remaining.append(target)
        entry.mbp = [apply_move_back(t, config) for t in remaining]
        return entry

    # Serial loops: cases 1 / 1b.
    remaining = []
    if case == "case1-serial-known":
        for target in targets:
            outcome = try_vector_prefetch(target, config, program) if config.enable_vpg else None
            if outcome is not None:
                entry.vpg.append(outcome)
                _cover_group(program, target, config)
            else:
                remaining.append(target)
    else:  # case1b: unknown bounds, VPG skipped
        remaining = list(targets)

    if remaining:
        sp = try_software_pipeline(lsc, remaining, config)
        if sp is not None:
            entry.sp = sp
            remaining = []
    entry.mbp = [apply_move_back(t, config) for t in remaining]
    return entry


def _classify_case(lsc: LSC) -> str:
    base = _classify_case_base(lsc)
    # Fig. 2 case 6: the LSC sits inside an IF branch — the same technique
    # applies but all insertions stay within the branch (guaranteed by
    # construction: parent_body *is* the branch body).
    return base + "+case6-in-if" if lsc.in_if_branch else base


def _classify_case_base(lsc: LSC) -> str:
    if not lsc.is_loop:
        return "case4-serial-section"
    loop = lsc.loop
    assert loop is not None
    if contains_if(loop):
        return "case5-loop-with-if"
    if loop.kind == LoopKind.DOALL:
        if loop.schedule == ScheduleKind.DYNAMIC:
            return "case3-doall-dynamic"
        if has_static_bounds(loop):
            return "case2-doall-static"
        return "case2b-doall-unknown-bounds"
    if has_static_bounds(loop):
        return "case1-serial-known"
    return "case1b-serial-unknown"


def _cover_group(program: Program, target: PrefetchTarget, config: CCDPConfig) -> None:
    """After a successful VPG, trailing group members are covered by the
    (padded) vector itself — nothing further to do.  Kept as an explicit
    hook so the invariant is stated in one place."""
    return None


__all__ = ["LSCSchedule", "ScheduleReport", "schedule_prefetches"]

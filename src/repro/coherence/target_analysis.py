"""Prefetch target analysis — the paper's Figure 1 algorithm.

Input: the set ``P`` of potentially-stale read references from stale
reference analysis.  Output: the set ``S ⊆ P`` worth prefetching, plus
the demotions:

* references not located in an innermost loop (or in epoch-level serial
  straight-line code) are **removed from S**; coherence for them is
  preserved by demoting them to *bypass-cache* reads;
* within each inner loop / serial code segment (LSC), uniformly
  generated references with group-spatial locality are clustered and
  only the **leading reference** of each group stays in S — the trailing
  references become normal reads serviced by the leading prefetch's
  freshly-installed line;
* non-affine references ("if the addresses cannot be converted into a
  linear expression") conservatively stay in S.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..analysis.epochs import RefInfo
from ..analysis.locality import PrefetchGroup, group_spatial_groups
from ..analysis.stale import StaleAnalysisResult
from ..ir.loops import LSC, collect_lscs
from ..ir.program import Program
from .config import CCDPConfig


@dataclass
class PrefetchTarget:
    """One reference selected for prefetching, with its scheduling
    context."""

    info: RefInfo
    lsc: LSC
    group: PrefetchGroup

    @property
    def uid(self) -> int:
        return self.info.uid


@dataclass
class TargetAnalysisResult:
    """Outcome of Fig. 1: the prefetch set S plus all demotions."""

    targets: List[PrefetchTarget] = field(default_factory=list)
    demoted_group: List[RefInfo] = field(default_factory=list)
    demoted_bypass: List[RefInfo] = field(default_factory=list)
    stale_calls: List[RefInfo] = field(default_factory=list)
    lscs: List[LSC] = field(default_factory=list)
    unassigned: List[RefInfo] = field(default_factory=list)

    def targets_by_lsc(self) -> List[Tuple[LSC, List[PrefetchTarget]]]:
        """Targets grouped per LSC, in LSC order (the unit Fig. 2 walks)."""
        buckets: Dict[int, List[PrefetchTarget]] = {}
        for target in self.targets:
            buckets.setdefault(id(target.lsc), []).append(target)
        return [(lsc, buckets[id(lsc)]) for lsc in self.lscs if id(lsc) in buckets]

    def summary(self) -> str:
        return (f"{len(self.targets)} prefetch targets; "
                f"{len(self.demoted_group)} demoted by group-spatial reuse; "
                f"{len(self.demoted_bypass)} demoted to bypass reads; "
                f"{len(self.stale_calls)} stale call summaries")


def prefetch_target_analysis(program: Program, stale: StaleAnalysisResult,
                             config: CCDPConfig) -> TargetAnalysisResult:
    """Run the Fig. 1 algorithm over the (inlined) program."""
    result = TargetAnalysisResult()
    result.lscs = collect_lscs(program.entry_proc.body)
    stmt_to_lsc = _statement_lsc_map(result.lscs)

    # Stage S = P, then partition P by LSC.
    per_lsc: Dict[int, List[RefInfo]] = {}
    lsc_by_id: Dict[int, LSC] = {id(l): l for l in result.lscs}
    for info in stale.stale_reads.values():
        if info.summarised_call is not None:
            # A stale read buried in a serial callee: handled by code
            # generation with a pre-call invalidation.
            result.stale_calls.append(info)
            continue
        lsc_id = stmt_to_lsc.get(info.stmt.uid)
        if lsc_id is None:
            # Reference in a statement outside the entry procedure (or in
            # analysis-only context): keep the program coherent via bypass.
            result.demoted_bypass.append(info)
            result.unassigned.append(info)
            continue
        lsc = lsc_by_id[lsc_id]
        if _eligible(lsc):
            per_lsc.setdefault(lsc_id, []).append(info)
        else:
            # Fig. 1 step 1: not in an innermost loop (nor epoch-level
            # serial code) — remove from S.
            result.demoted_bypass.append(info)

    # Per-LSC group-spatial clustering; keep only leading references.
    line_words = config.machine.line_words
    for lsc_id, infos in per_lsc.items():
        lsc = lsc_by_id[lsc_id]
        inner_var = lsc.loop.var if lsc.loop is not None else None
        groups, nonaffine = group_spatial_groups(infos, inner_var, line_words)
        for group in groups:
            result.targets.append(PrefetchTarget(info=group.leading, lsc=lsc, group=group))
            result.demoted_group.extend(group.trailing)
        for info in nonaffine:
            # Conservative: non-affine references are prefetched alone.
            result.targets.append(PrefetchTarget(
                info=info, lsc=lsc,
                group=PrefetchGroup(leading=info, trailing=[], stride_elems=0)))
    return result


def _eligible(lsc: LSC) -> bool:
    """Fig. 1 keeps targets in innermost loops; we additionally keep
    epoch-level straight-line serial code (paper Fig. 2 case 4 schedules
    such targets with move-back prefetches)."""
    if lsc.is_loop:
        return True
    return not lsc.enclosing_loops


def _statement_lsc_map(lscs: List[LSC]) -> Dict[int, int]:
    """Map statement uid -> id(LSC) for every statement owned by an LSC."""
    mapping: Dict[int, int] = {}
    for lsc in lscs:
        owner = id(lsc)
        if lsc.is_loop:
            assert lsc.loop is not None
            for stmt in lsc.loop.walk():
                mapping[stmt.uid] = owner
        else:
            for stmt in lsc.stmts:
                for node in stmt.walk():
                    mapping[node.uid] = owner
    return mapping


__all__ = ["PrefetchTarget", "TargetAnalysisResult", "prefetch_target_analysis"]

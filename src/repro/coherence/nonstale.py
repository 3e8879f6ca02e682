"""Non-stale prefetching — the paper's §6 extension.

    "The present CCDP scheme only prefetches the potentially-stale
    references.  Intuitively, we should be able to obtain further
    performance improvement by prefetching the non-stale references as
    well."

This optional pass widens the prefetch target set with *fresh* shared
reads located in innermost loops.  Those prefetches are purely for
latency hiding, so they are issued **without** the invalidate-first step
(the cached copy, if any, is known coherent) — dropping one is harmless.

Only references that plausibly miss are added: possibly-remote accesses
(non-ALIGNED alignment class) or self-spatial streams; everything else
would waste queue slots on guaranteed hits.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.alignment import AccessClass
from ..analysis.epochs import EpochGraph, RefInfo
from ..analysis.locality import group_spatial_groups
from ..analysis.stale import StaleAnalysisResult
from ..analysis.volume import reuse_stays_resident
from ..ir.program import Program
from .config import CCDPConfig
from .target_analysis import (PrefetchTarget, TargetAnalysisResult,
                              _statement_lsc_map)


def add_nonstale_targets(program: Program, graph: EpochGraph,
                         stale: StaleAnalysisResult,
                         targets: TargetAnalysisResult,
                         config: CCDPConfig) -> int:
    """Extend ``targets`` in place with worthwhile non-stale reads.
    Returns the number of targets added."""
    stmt_to_lsc = _statement_lsc_map(targets.lscs)
    lsc_by_id = {id(l): l for l in targets.lscs}
    already = {t.uid for t in targets.targets}
    already |= {info.uid for info in targets.demoted_group}
    already |= {info.uid for info in targets.demoted_bypass}

    candidates: Dict[int, List[RefInfo]] = {}
    for info in stale.fresh_reads.values():
        if info.uid in already or info.summarised_call is not None:
            continue
        if not info.decl.is_shared:
            continue
        if info.alignment.klass == AccessClass.ALIGNED and not _streams(info):
            continue  # local and reused: prefetching buys nothing
        lsc_id = stmt_to_lsc.get(info.stmt.uid)
        if lsc_id is None:
            continue
        lsc = lsc_by_id[lsc_id]
        if not lsc.is_loop:
            continue  # latency-only prefetching targets loops
        candidates.setdefault(lsc_id, []).append(info)

    added = 0
    line_words = config.machine.line_words
    for lsc_id, infos in candidates.items():
        lsc = lsc_by_id[lsc_id]
        if lsc.loop is not None and reuse_stays_resident(
                lsc.loop, program.arrays, config.machine):
            # Loop volume analysis (paper §4.2's deferred optimisation):
            # the loop's whole footprint stays cache-resident, so its
            # temporal reuse hits without help — latency-only prefetches
            # here would be pure overhead.
            continue
        inner_var = lsc.loop.var if lsc.loop is not None else None
        groups, nonaffine = group_spatial_groups(infos, inner_var, line_words)
        for group in groups:
            targets.targets.append(PrefetchTarget(info=group.leading, lsc=lsc,
                                                  group=group))
            # Trailing members stay plain reads; no demotion bookkeeping is
            # needed because they were never stale.
            added += 1
        # Non-affine fresh reads are left alone: unlike stale ones there
        # is no correctness reason to prefetch them.
    return added


def _streams(info: RefInfo) -> bool:
    """True when the reference walks memory (self-spatial candidate)."""
    if info.aref is None or not info.loop_stack:
        return False
    inner = info.loop_stack[-1]
    return info.aref.address.coeff(inner.var) != 0


__all__ = ["add_nonstale_targets"]

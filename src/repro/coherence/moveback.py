"""Moving back prefetches (MBP) — the fallback scheduling technique.

Adapted from Gornish's pull-back algorithm: a line prefetch for the
target is hoisted as far above its use as control and data dependences
allow — never above a statement that defines a scalar used in the
target's subscripts, never above a procedure call, never above a write
to the same array that is not provably distinct or a parallel epoch
boundary writing the array, and never out of the enclosing IF branch
(Fig. 2 cases 5/6).

The paper's tuning parameter decides whether a given hoist distance is
*worth it*: if the prefetch cannot be moved far enough back to plausibly
arrive in time (estimated cycle distance below ``mbp_min_cycles``), the
prefetch is dropped and the reference is demoted to a **bypass-cache
fetch** — the always-coherent fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis.costmodel import stmt_cost
from ..ir.expr import RefMode
from ..ir.stmt import If, Loop, PrefetchLine, Stmt
from .config import CCDPConfig
from .schedutil import hoist_floor, locate
from .target_analysis import PrefetchTarget


@dataclass
class MBPOutcome:
    """Result for one target: either a placed prefetch or a bypass."""

    target: PrefetchTarget
    moved: bool
    distance_cycles: float = 0.0
    stmt: Optional[PrefetchLine] = None


def apply_move_back(target: PrefetchTarget, config: CCDPConfig,
                    limit_to_if: bool = True) -> MBPOutcome:
    """Schedule one target with MBP; mutates the program in place."""
    info = target.info
    container, floor, use_index = _containing_block(target, limit_to_if)
    if container is None or use_index is None:
        return _bypass(target)
    if not config.enable_mbp:
        return _bypass(target)

    position = hoist_floor(container, use_index, info.ref, floor,
                           decl=info.decl)
    distance = sum(stmt_cost(container[i], config.machine)
                   for i in range(position, use_index))
    if distance < config.mbp_min_cycles:
        return _bypass(target)

    prefetch = PrefetchLine(info.ref.clone(), invalidate_first=True,
                            for_uid=info.uid)
    prefetch.ref.mode = RefMode.NORMAL
    container.insert(position, prefetch)
    _bypass_trailing(target)
    return MBPOutcome(target=target, moved=True, distance_cycles=distance,
                      stmt=prefetch)


def _bypass(target: PrefetchTarget) -> MBPOutcome:
    """Drop the prefetch: the reference (and its whole group, which was
    counting on the leading prefetch) reads around the cache."""
    target.info.ref.mode = RefMode.BYPASS
    for member in target.group.trailing:
        member.ref.mode = RefMode.BYPASS
    return MBPOutcome(target=target, moved=False)


def _bypass_trailing(target: PrefetchTarget) -> None:
    """MBP prefetches one line per iteration at the use point; unlike the
    SP/VPG paths there is no warm-up window machinery here, so trailing
    group members fall back to bypass reads for guaranteed coherence."""
    for member in target.group.trailing:
        member.ref.mode = RefMode.BYPASS


def _containing_block(target: PrefetchTarget,
                      limit_to_if: bool) -> Tuple[Optional[List[Stmt]], int, Optional[int]]:
    """The statement list the prefetch may move within, the floor index,
    and the index of the statement using the target."""
    lsc = target.lsc
    stmt = target.info.stmt

    if lsc.is_loop:
        assert lsc.loop is not None
        block, floor = _innermost_block(lsc.loop.body, stmt, limit_to_if)
        if block is None:
            return None, 0, None
        return block, floor, locate(block, stmt)

    # Serial segment: move within the parent body, not above the segment.
    assert lsc.parent_body is not None
    block, floor = _innermost_block(lsc.parent_body, stmt, limit_to_if)
    if block is None:
        return None, 0, None
    if block is lsc.parent_body:
        floor = max(floor, lsc.index_in_parent)
    return block, floor, locate(block, stmt)


def _innermost_block(root: List[Stmt], stmt: Stmt,
                     limit_to_if: bool) -> Tuple[Optional[List[Stmt]], int]:
    """The innermost statement list containing ``stmt``: descends into IF
    branches (which bound the hoist per Fig. 2 cases 5/6) but not into
    loops (the caller supplies the right loop body)."""
    index = locate(root, stmt)
    if index is None:
        return None, 0
    owner = root[index]
    if owner is stmt:
        return root, 0
    if isinstance(owner, If) and limit_to_if:
        for branch in (owner.then_body, owner.else_body):
            block, floor = _innermost_block(branch, stmt, limit_to_if)
            if block is not None:
                return block, floor
        return root, 0
    if isinstance(owner, Loop):
        block, floor = _innermost_block(owner.body, stmt, limit_to_if)
        if block is not None:
            return block, floor
    return root, 0


__all__ = ["MBPOutcome", "apply_move_back"]

"""Vector prefetch generation (VPG) — adapted from Gornish's pull-out
algorithm as the paper describes.

A prefetch target inside an inner loop is pulled out of the loop and
replaced by one block (vector) prefetch covering the loop's footprint of
that reference.  Following the paper's modification of Gornish, the
reference is pulled out **one loop level at a time**, each hoist checked
against the hardware constraints (vector length vs. cache capacity), and
the hoist stops at the first level where the reference still varies.

Hoisting above a DOALL loop places the vector in the loop's *preamble*
(executed once per PE per epoch): a prefetch must land in the cache of
the PE that will consume the data, so a parallel loop is the ceiling of
any hoist.  Pulling a target out of the DOALL itself (Fig. 2 case 2,
static scheduling with known bounds — "if the loop is parallel and the
loop scheduling strategy is known at compile time") emits a per-PE
vector over the PE's own iteration chunk via the ``__lo_<var>`` /
``__hi_<var>`` chunk variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..analysis.epochs import RefInfo
from ..ir.expr import BinOp, Expr, IntConst, VarRef
from ..ir.loops import static_trip_count
from ..ir.program import Program
from ..ir.stmt import Loop, LoopKind, PrefetchLine, PrefetchVector, Stmt
from ..ir.visitor import const_int_value, substitute
from .config import CCDPConfig
from .schedutil import clamp_expr, sub_with, variant_axis
from .target_analysis import PrefetchTarget


@dataclass
class VPGOutcome:
    """Successful vector prefetch generation for one target."""

    target: PrefetchTarget
    stmt: Stmt                  #: the inserted PrefetchVector / PrefetchLine
    placement: str              #: "before-loop" | "preamble"
    hoist_levels: int
    est_words: int


def try_vector_prefetch(target: PrefetchTarget, config: CCDPConfig,
                        program: Program) -> Optional[VPGOutcome]:
    """Attempt VPG for one target; returns ``None`` when not applicable
    (the Fig. 2 driver then falls through to the next technique)."""
    lsc = target.lsc
    loop = lsc.loop
    info = target.info
    if loop is None or info.aref is None:
        return None
    if const_int_value(loop.step) != 1:
        return None
    if loop.is_parallel and loop.schedule != "static_block":
        # Per-PE chunk vectors assume contiguous (block) iteration chunks.
        return None

    axis_info = variant_axis(info, loop.var)
    invariant = info.aref.address.coeff(loop.var) == 0
    if not invariant:
        if axis_info is None or abs(axis_info[1]) != 1:
            return None  # multi-dim or non-unit variation: inexpressible

    trip = static_trip_count(loop)
    if trip is None:
        return None  # unknown bounds: Fig. 2 sends these to SP/MBP

    # Hardware constraint check (paper: vector length vs. cache size).
    # A strided vector (axis stride >= one line) installs a whole cache
    # line per element, so its cache footprint is length * line_words.
    pad = _group_pad(target, info)
    if invariant:
        est_words = config.machine.line_words
    elif loop.is_parallel:
        est_words = math.ceil(trip / config.machine.n_pes) + 2 * pad
    else:
        est_words = trip + 2 * pad
    if not invariant:
        axis_stride = info.decl.strides()[axis_info[0]]  # type: ignore[index]
        if axis_stride >= config.machine.line_words:
            est_cache_words = est_words * config.machine.line_words
        else:
            est_cache_words = est_words * axis_stride + config.machine.line_words
    else:
        est_cache_words = est_words
    if est_cache_words > config.max_vector_words:
        return None
    if not invariant and est_words < config.vector_min_words:
        return None  # a tiny vector is not worth its startup cost

    # Build the prefetch statement.
    if loop.is_parallel:
        lo_name, hi_name, _ = loop.chunk_vars()
        lo_expr: Expr = VarRef(lo_name)
        hi_expr: Expr = VarRef(hi_name)
    else:
        lo_expr = loop.lower.clone()
        hi_expr = loop.upper.clone()

    if invariant:
        stmt: Stmt = PrefetchLine(sub_with(info.ref, loop.var, lo_expr),
                                  invalidate_first=True, for_uid=info.uid)
    else:
        axis, coeff = axis_info  # type: ignore[misc]
        stmt = _build_vector(info, loop.var, axis, coeff, lo_expr, hi_expr, pad)

    # Place it: directly into a parallel loop's preamble, else before the
    # loop — then try to hoist across invariant enclosing levels.
    if loop.is_parallel:
        loop.preamble.append(stmt)
        return VPGOutcome(target, stmt, "preamble", 0, est_words)

    container, index, placement, levels = _hoist_chain(target, stmt, program)
    if placement == "preamble":
        container.append(stmt)
    else:
        container.insert(index, stmt)
    return VPGOutcome(target, stmt, placement, levels, est_words)


def _group_pad(target: PrefetchTarget, info: RefInfo) -> int:
    """Extra elements (each side) so the vector also covers the group's
    trailing references."""
    if not target.group.trailing:
        return 0
    axis_strides = info.decl.strides()
    axis_info = variant_axis(info, target.lsc.loop.var) if target.lsc.loop else None
    axis_stride = axis_strides[axis_info[0]] if axis_info else 1
    return math.ceil(target.group.span_elems / max(1, axis_stride))


def _build_vector(info: RefInfo, var: str, axis: int, coeff: int,
                  lo_expr: Expr, hi_expr: Expr, pad: int) -> PrefetchVector:
    extent = info.decl.shape[axis]
    axis_sub = info.ref.subscripts[axis]
    at_lo = substitute(axis_sub, {var: lo_expr})
    at_hi = substitute(axis_sub, {var: hi_expr})
    if coeff < 0:
        at_lo, at_hi = at_hi, at_lo
    if pad:
        at_lo = BinOp("-", at_lo, IntConst(pad))
        at_hi = BinOp("+", at_hi, IntConst(pad))
    start = clamp_expr(at_lo, 1, extent)
    end = clamp_expr(at_hi, 1, extent)
    length = BinOp("+", BinOp("-", end, start.clone()), IntConst(1))
    subs: List[Expr] = []
    for dim, sub in enumerate(info.ref.subscripts):
        if dim == axis:
            subs.append(start)
        else:
            subs.append(substitute(sub.clone(), {var: lo_expr.clone()}))
    return PrefetchVector(info.ref.array, subs, axis, length, IntConst(1),
                          invalidate_first=True, for_uid=info.uid)


def _hoist_chain(target: PrefetchTarget, stmt: Stmt,
                 program: Program) -> Tuple[List[Stmt], int, str, int]:
    """Pull the generated prefetch out of enclosing loops, one level at a
    time, while it stays invariant.  Returns (container, index,
    placement, levels hoisted)."""
    lsc = target.lsc
    assert lsc.parent_body is not None and lsc.loop is not None
    container: List[Stmt] = lsc.parent_body
    anchor: Stmt = lsc.loop
    levels = 0
    if lsc.in_if_branch:
        # Fig. 2 case 6: prefetch only within the if branch.
        return container, _index_of(container, anchor), "before-loop", levels

    free = {name for expr in stmt.expressions() for name in expr.free_vars()}
    array = target.info.ref.array
    chain = list(lsc.enclosing_loops)  # outermost .. innermost
    entry_body = program.entry_proc.body
    while chain:
        enclosing = chain.pop()  # innermost remaining
        if not any(s is anchor for s in enclosing.body):
            break  # anchor not directly inside (e.g. behind an If): stop
        if enclosing.var in free:
            break  # still varies at this level
        if _writes_array(enclosing, array):
            # Gornish's data-dependence condition: a write to the array
            # anywhere in this loop means the (eagerly installed) vector
            # would go stale on later iterations — the prefetch must stay
            # inside, re-issued per iteration.
            break
        if enclosing.kind == LoopKind.DOALL:
            # Ceiling: each PE must prefetch into its own cache.
            return enclosing.preamble, len(enclosing.preamble), "preamble", levels + 1
        parent = chain[-1].body if chain else entry_body
        if not any(s is enclosing for s in parent):
            break
        container = parent
        anchor = enclosing
        levels += 1
    return container, _index_of(container, anchor), "before-loop", levels


def _writes_array(loop: Loop, array: str) -> bool:
    from ..ir.expr import ArrayRef
    from ..ir.stmt import Assign, CallStmt

    for stmt in loop.walk():
        if isinstance(stmt, Assign) and isinstance(stmt.lhs, ArrayRef):
            if stmt.lhs.array == array:
                return True
        if isinstance(stmt, CallStmt):
            return True  # opaque callee: assume it may write anything
    return False


def _index_of(container: Sequence[Stmt], anchor: Stmt) -> int:
    for index, stmt in enumerate(container):
        if stmt is anchor:
            return index
    raise ValueError("anchor statement not found in its container")


__all__ = ["VPGOutcome", "try_vector_prefetch"]

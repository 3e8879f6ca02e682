"""Shared helpers for the prefetch scheduling techniques.

Everything here errs in the *coherent* direction: when an address
pattern cannot be expressed, the caller falls back to a bypass-cache
read, which is always correct.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ..analysis.affine import AffineRef, affine_ref
from ..analysis.epochs import RefInfo
from ..analysis.locality import PrefetchGroup
from ..ir.arrays import ArrayDecl
from ..ir.expr import (ArrayRef, BinOp, Expr, IntConst, IntrinsicCall,
                       RefMode, VarRef)
from ..ir.stmt import Assign, CallStmt, InvalidateLines, Loop, LoopKind, Stmt
from ..ir.visitor import substitute
from .config import CCDPConfig


def variant_axis(info: RefInfo, var: str) -> Optional[Tuple[int, int]]:
    """(dimension index, coefficient) of the unique dimension of the
    reference whose subscript varies with ``var``; ``None`` when zero or
    several dimensions vary, or the reference is non-affine."""
    if info.aref is None:
        return None
    hits = [(dim, form.coeff(var))
            for dim, form in enumerate(info.aref.dims) if form.coeff(var) != 0]
    if len(hits) != 1:
        return None
    return hits[0]


def clamp_expr(expr: Expr, lo: int, hi: int) -> Expr:
    """``min(hi, max(lo, expr))`` as IR."""
    return IntrinsicCall("min", [IntConst(hi),
                                 IntrinsicCall("max", [IntConst(lo), expr])])


def sub_with(ref: ArrayRef, var: str, replacement: Expr) -> ArrayRef:
    """Clone ``ref`` with ``var`` substituted in all subscripts."""
    fresh = ref.clone()
    fresh.subscripts = [substitute(s, {var: replacement}) for s in fresh.subscripts]
    fresh.mode = RefMode.NORMAL
    return fresh


def shifted_ref(ref: ArrayRef, var: str, delta: int) -> ArrayRef:
    """Clone ``ref`` with ``var -> var + delta`` (prefetch look-ahead)."""
    if delta == 0:
        fresh = ref.clone()
        fresh.mode = RefMode.NORMAL
        return fresh
    return sub_with(ref, var, BinOp("+", VarRef(var), IntConst(delta)))


# ---------------------------------------------------------------------------
# Warm-up invalidations for group-spatial trailing references
# ---------------------------------------------------------------------------

def warmup_invalidations(group: PrefetchGroup, loop: Loop, config: CCDPConfig,
                         line_elems: int) -> Tuple[List[Stmt], List[RefInfo]]:
    """Statements to place before ``loop`` so trailing references are
    coherent during the iterations before the leading prefetch stream
    has swept past them.

    Returns ``(invalidations, bypass_fallbacks)``: members whose warm-up
    window cannot be expressed are demoted to bypass reads instead.
    """
    stmts: List[Stmt] = []
    fallbacks: List[RefInfo] = []
    if not group.trailing:
        return stmts, fallbacks
    stride = abs(group.stride_elems)
    lead_const = group.leading.aref.address.const if group.leading.aref else 0
    for member in group.trailing:
        axis_info = variant_axis(member, loop.var)
        if member.aref is None:
            member.ref.mode = RefMode.BYPASS
            fallbacks.append(member)
            continue
        delta = lead_const - member.aref.address.const
        if delta <= 0:
            continue  # at or past the leading reference; always covered
        warm_iters = math.ceil(delta / max(1, stride))
        if axis_info is None:
            # Invariant trailing ref within the line of the leading one —
            # one line invalidation at the member's own address.
            start = [s.clone() for s in member.ref.subscripts]
            start = [substitute(s, {loop.var: loop.lower.clone()}) for s in start]
            stmts.append(InvalidateLines(member.ref.array, start, 0, IntConst(line_elems)))
            continue
        axis, coeff = axis_info
        extent = member.decl.shape[axis]
        length = warm_iters * abs(coeff) + line_elems
        start = [substitute(s.clone(), {loop.var: loop.lower.clone()})
                 for s in member.ref.subscripts]
        start[axis] = clamp_expr(start[axis], 1, extent)
        stmts.append(InvalidateLines(member.ref.array, start, axis,
                                     IntConst(min(length, extent))))
    return stmts, fallbacks


# ---------------------------------------------------------------------------
# Statement-list surgery
# ---------------------------------------------------------------------------

def locate(container: Sequence[Stmt], stmt: Stmt) -> Optional[int]:
    """Index of the top-level statement of ``container`` that is (or
    contains) ``stmt``."""
    for index, candidate in enumerate(container):
        for node in candidate.walk():
            if node is stmt:
                return index
    return None


def defines_names(stmt: Stmt, names: set) -> bool:
    """Conservative: does ``stmt`` (or anything nested) define any of the
    scalar ``names``?  Calls are treated as defining everything."""
    for node in stmt.walk():
        if isinstance(node, CallStmt):
            return True
        if isinstance(node, Assign) and isinstance(node.lhs, VarRef):
            if node.lhs.name in names:
                return True
        if isinstance(node, Loop) and node.var in names:
            return True
    return False


def subscript_free_vars(ref: ArrayRef) -> set:
    names = set()
    for sub in ref.subscripts:
        names |= sub.free_vars()
    return names


def _definitely_distinct(a: Optional[AffineRef], b: Optional[AffineRef]) -> bool:
    """Provably different addresses for every loop environment: some
    dimension's subscripts share coefficients but differ in constant."""
    if a is None or b is None or len(a.dims) != len(b.dims):
        return False
    return any(x.same_shape(y) and x.const != y.const
               for x, y in zip(a.dims, b.dims))


def blocks_hoist(stmt: Stmt, ref: ArrayRef,
                 decl: Optional[ArrayDecl] = None) -> bool:
    """May a prefetch of ``ref`` NOT be hoisted above ``stmt``?

    Two data hazards beyond the scalar-definition check: a write to the
    same array whose address cannot be proven distinct (the prefetched
    copy would predate the write its use must observe), and a parallel
    loop writing the array (an epoch boundary — the paper forbids
    prefetched data to cross it, as other PEs' writes invalidate it)."""
    aref = affine_ref(ref, decl) if decl is not None else None
    for node in stmt.walk():
        if isinstance(node, Loop) and node.kind == LoopKind.DOALL:
            if any(isinstance(s, Assign) and isinstance(s.lhs, ArrayRef)
                   and s.lhs.array == ref.array for s in node.walk()):
                return True
        elif isinstance(node, Assign) and isinstance(node.lhs, ArrayRef) \
                and node.lhs.array == ref.array:
            wref = affine_ref(node.lhs, decl) if decl is not None else None
            if not _definitely_distinct(aref, wref):
                return True
    return False


def hoist_floor(container: Sequence[Stmt], use_index: int, ref: ArrayRef,
                floor: int, decl: Optional[ArrayDecl] = None) -> int:
    """Earliest index in ``container`` a prefetch of ``ref`` may move to,
    starting from its use at ``use_index`` and never above ``floor``."""
    names = subscript_free_vars(ref)
    position = use_index
    while position > floor:
        previous = container[position - 1]
        if defines_names(previous, names):
            break
        if blocks_hoist(previous, ref, decl):
            break
        position -= 1
    return position


__all__ = ["variant_axis", "clamp_expr", "sub_with", "shifted_ref",
           "warmup_invalidations", "locate", "defines_names",
           "subscript_free_vars", "blocks_hoist", "hoist_floor"]

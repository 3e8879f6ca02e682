"""Ownership/alignment classification of shared-array references.

The stale reference analysis needs to know, for each reference inside a
parallel epoch, whether the *executing* PE is provably the *owner* of
every element the reference touches.  On the T3D (and in the paper's
hand-transformed codes) data and iterations use matching BLOCK
partitions, so the classification reduces to comparing the reference's
distributed-axis subscript against the DOALL induction variable.

Classes (conservative order — anything not provably ALIGNED may involve
a PE other than the owner):

``ALIGNED``
    subscript ≡ DOALL variable, loop range covers the axis 1..N with the
    same partition kind — executing PE == owner for every element.
``SHIFTED``
    subscript ≡ DOALL variable + c (c ≠ 0) — owner differs only within
    |c| of block boundaries (stencil codes); treated as possibly-remote.
``INVARIANT``
    the distributed-axis subscript does not involve the DOALL variable —
    a whole-column-style access whose owner is some fixed PE.
``OTHER``
    anything else (non-affine, scaled, multi-variable).
``SERIAL``
    the reference executes in a serial epoch (single task on PE 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from typing import Optional as _Optional

from ..ir.arrays import ArrayDecl, DistKind
from ..ir.stmt import Loop, ScheduleKind
from ..ir.visitor import const_int_value
from .affine import AffineForm, AffineRef


class AccessClass:
    ALIGNED = "aligned"
    SHIFTED = "shifted"
    INVARIANT = "invariant"
    OTHER = "other"
    SERIAL = "serial"


@dataclass(frozen=True)
class Alignment:
    """Result of classifying one reference occurrence."""

    klass: str
    shift: int = 0  #: constant offset for SHIFTED accesses

    @property
    def possibly_remote(self) -> bool:
        return self.klass != AccessClass.ALIGNED


def _schedules_match(loop: Loop, decl: ArrayDecl,
                     align_decl: "_Optional[ArrayDecl]") -> bool:
    """True when the DOALL iteration partition provably equals the data
    partition of the distributed axis.

    Two ways to match: an *owner-aligned* loop (``align(A)``) whose align
    target has the same distribution geometry as the referenced array, or
    a plain STATIC_BLOCK loop whose range is exactly the full axis."""
    if align_decl is not None:
        # Owner-computes: iteration v runs on the owner of index v of the
        # align target's distributed axis.  That equals the owner of the
        # referenced element iff both arrays distribute the same way over
        # the same extent.
        return (align_decl.dist.kind == decl.dist.kind
                and align_decl.shape[align_decl.dist_axis] == decl.shape[decl.dist_axis])
    if decl.dist.kind == DistKind.BLOCK and loop.schedule != ScheduleKind.STATIC_BLOCK:
        return False
    if decl.dist.kind == DistKind.CYCLIC and loop.schedule != ScheduleKind.STATIC_CYCLIC:
        return False
    lo = const_int_value(loop.lower)
    hi = const_int_value(loop.upper)
    step = const_int_value(loop.step)
    extent = decl.shape[decl.dist_axis]
    return lo == 1 and hi == extent and step == 1


def classify(aref: Optional[AffineRef], decl: ArrayDecl, doall: Optional[Loop],
             align_decl: Optional[ArrayDecl] = None) -> Alignment:
    """Classify one reference to shared array ``decl``.

    ``doall`` is the parallel loop whose iterations define the executing
    PE, or ``None`` when the reference sits in a serial epoch.
    ``aref`` is the affine form, or ``None`` for non-affine subscripts.
    ``align_decl`` is the declaration of the loop's ``align`` target, if
    any (owner-computes scheduling).
    """
    if not decl.is_shared:
        # Private arrays are per-PE; alignment is moot but treating them
        # as ALIGNED keeps them out of the stale sets.
        return Alignment(AccessClass.ALIGNED)
    if doall is None:
        return Alignment(AccessClass.SERIAL)
    if aref is None:
        return Alignment(AccessClass.OTHER)

    form: AffineForm = aref.dims[decl.dist_axis]
    var = doall.var
    coeff = form.coeff(var)
    other_vars = [v for v in form.variables() if v != var]

    if coeff == 0 and not other_vars and not form.is_symbolic():
        return Alignment(AccessClass.INVARIANT)
    if coeff == 0:
        # Depends on some non-DOALL variable or a symbol: owner varies in
        # a way unrelated to the executing PE.
        return Alignment(AccessClass.INVARIANT)
    if coeff != 1 or other_vars or form.is_symbolic():
        return Alignment(AccessClass.OTHER)
    if not _schedules_match(doall, decl, align_decl):
        return Alignment(AccessClass.OTHER)
    if form.const == 0:
        return Alignment(AccessClass.ALIGNED)
    return Alignment(AccessClass.SHIFTED, shift=form.const)


__all__ = ["AccessClass", "Alignment", "classify"]

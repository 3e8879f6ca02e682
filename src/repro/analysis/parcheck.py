"""Static DOALL-independence checking.

The paper's execution model *assumes* that "as there are no data
dependencies between the tasks in a parallel epoch, they can be executed
in parallel without synchronization" — in the original toolchain Polaris
guaranteed it.  Since our programs are written in parallel form directly,
this pass re-derives the guarantee: for every DOALL loop it proves (or
fails to prove) that no two different iterations touch the same array
element with at least one write.

The test used is the classic GCD + bounds (Banerjee-style) test on the
affine access pair, specialised to the single parallel index:

two iterations ``v1 != v2`` of DOALL variable ``v`` conflict on refs
``R`` (write) and ``S`` iff  ``addr_R(v1, w) == addr_S(v2, w')`` for some
inner-loop values ``w, w'``.  Writing the addresses as
``a·v + f(w)`` and ``b·v + g(w)``, a conflict requires

    a·v1 - b·v2  ∈  range(g - f)

which we test conservatively: GCD divisibility of the constant part and
interval intersection of the variable part.  "Cannot prove independent"
is reported as a *warning*, not an error — exactly how a parallelising
compiler treats a may-dependence it is told to ignore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Optional, Tuple

from ..ir.arrays import ArrayDecl
from ..ir.expr import ArrayRef
from ..ir.program import Program
from ..ir.stmt import Assign, CallStmt, Loop, LoopKind, Stmt
from ..ir.visitor import const_int_value
from .affine import AffineRef, affine_ref


@dataclass
class Access:
    ref: ArrayRef
    aref: Optional[AffineRef]
    is_write: bool
    inner_ranges: Dict[str, Optional[Tuple[int, int]]]


@dataclass
class Conflict:
    """A (possible) cross-iteration dependence in a DOALL."""

    loop: Loop
    array: str
    write: ArrayRef
    other: ArrayRef
    reason: str

    def describe(self) -> str:
        return (f"doall {self.loop.var}"
                f"{f' [{self.loop.label}]' if self.loop.label else ''}: "
                f"{self.write!r} may conflict with {self.other!r} "
                f"({self.reason})")


@dataclass
class ParCheckResult:
    conflicts: List[Conflict] = field(default_factory=list)
    loops_checked: int = 0
    accesses_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.conflicts

    def summary(self) -> str:
        if self.clean:
            return (f"{self.loops_checked} DOALL loops independent "
                    f"({self.accesses_checked} access pairs)")
        return (f"{len(self.conflicts)} possible cross-iteration "
                f"dependences in {self.loops_checked} DOALL loops")


def check_doall_independence(program: Program) -> ParCheckResult:
    """Verify every DOALL in every procedure."""
    result = ParCheckResult()
    for proc in program.procedures.values():
        for stmt in proc.walk():
            if isinstance(stmt, Loop) and stmt.kind == LoopKind.DOALL:
                result.loops_checked += 1
                _check_loop(program, stmt, result)
    return result


def _check_loop(program: Program, loop: Loop, result: ParCheckResult) -> None:
    accesses = _collect_accesses(program, loop)
    by_array: Dict[str, List[Access]] = {}
    for access in accesses:
        by_array.setdefault(access.ref.array, []).append(access)

    trip = _range_span(loop)
    for array, group in by_array.items():
        decl = program.array(array)
        if not decl.is_shared:
            continue  # private arrays are per-task by construction
        writes = [a for a in group if a.is_write]
        for write in writes:
            for other in group:
                if other is write and len([a for a in group if a is write]) == 1 \
                        and not _self_pairs_needed(write):
                    pass
                result.accesses_checked += 1
                conflict = _pair_conflict(loop, decl, write, other, trip)
                if conflict is not None:
                    result.conflicts.append(conflict)
                    return  # one finding per loop/array keeps reports short


def _self_pairs_needed(access: Access) -> bool:
    return True


def _collect_accesses(program: Program, loop: Loop) -> List[Access]:
    out: List[Access] = []

    def visit(stmt: Stmt, ranges: Dict[str, Optional[Tuple[int, int]]]) -> None:
        if isinstance(stmt, Loop):
            inner = dict(ranges)
            inner[stmt.var] = _bounds(stmt)
            for child in stmt.body:
                visit(child, inner)
            return
        if isinstance(stmt, CallStmt):
            # opaque callee: conservatively flag every shared array it
            # might write (handled by the caller as a may-dependence)
            for expr in stmt.expressions():
                for node in expr.walk():
                    if isinstance(node, ArrayRef):
                        decl = program.array(node.array)
                        out.append(Access(node, affine_ref(node, decl), False,
                                          dict(ranges)))
            return
        if isinstance(stmt, Assign):
            for node in stmt.rhs.walk():
                if isinstance(node, ArrayRef):
                    decl = program.array(node.array)
                    out.append(Access(node, affine_ref(node, decl), False,
                                      dict(ranges)))
            if isinstance(stmt.lhs, ArrayRef):
                decl = program.array(stmt.lhs.array)
                out.append(Access(stmt.lhs, affine_ref(stmt.lhs, decl), True,
                                  dict(ranges)))
                for sub in stmt.lhs.subscripts:
                    for node in sub.walk():
                        if isinstance(node, ArrayRef):
                            sub_decl = program.array(node.array)
                            out.append(Access(node, affine_ref(node, sub_decl),
                                              False, dict(ranges)))
            return
        for body in stmt.bodies():
            for child in body:
                visit(child, ranges)
        for expr in stmt.expressions():
            for node in expr.walk():
                if isinstance(node, ArrayRef):
                    decl = program.array(node.array)
                    out.append(Access(node, affine_ref(node, decl), False,
                                      dict(ranges)))

    for stmt in loop.body:
        visit(stmt, {})
    return out


def _bounds(loop: Loop) -> Optional[Tuple[int, int]]:
    lo = const_int_value(loop.lower)
    hi = const_int_value(loop.upper)
    if lo is None or hi is None:
        return None
    return (min(lo, hi), max(lo, hi))


def _range_span(loop: Loop) -> Optional[int]:
    bounds = _bounds(loop)
    if bounds is None:
        return None
    step = const_int_value(loop.step) or 1
    return max(1, abs(bounds[1] - bounds[0]) // max(1, abs(step)))


def _pair_conflict(loop: Loop, decl: ArrayDecl, write: Access, other: Access,
                   trip: Optional[int]) -> Optional[Conflict]:
    """GCD/bounds test for one (write, other) pair across iterations.

    With ``v = lo + step·t`` the conflict equation for iterations
    ``t1 != t2`` is ``step·(a·t1 - b·t2) + (a - b)·lo = delta`` where
    ``delta`` ranges over the difference of the var-free address parts."""
    if write.aref is None or other.aref is None:
        return Conflict(loop, decl.name, write.ref, other.ref,
                        "non-affine subscript")
    var = loop.var
    a = write.aref.address.coeff(var)
    b = other.aref.address.coeff(var)
    step = abs(const_int_value(loop.step) or 1)
    delta_lo, delta_hi = _delta_range(write, other, var)

    if a == 0 and b == 0:
        # Both invariant in the parallel index: every iteration touches
        # the same element(s) — any write is a cross-task conflict.
        if delta_lo <= 0 <= delta_hi:
            return Conflict(loop, decl.name, write.ref, other.ref,
                            "parallel-invariant write")
        return None

    if a == b:
        # Exact case: the equation reduces to a·step·(t1 - t2) = delta.
        # A conflict needs a NON-zero multiple of a·step inside the delta
        # range (m = 0 is the same task touching its own data).
        k = abs(a) * step
        lo_m = -(-delta_lo // k)   # ceil
        hi_m = delta_hi // k       # floor
        distances = [m for m in range(lo_m, hi_m + 1)
                     if m != 0 and (trip is None or abs(m) <= trip)]
        if not distances:
            return None
        distance = min(abs(m) for m in distances)
        return Conflict(loop, decl.name, write.ref, other.ref,
                        f"loop-carried distance {distance}")

    # Mixed coefficients: GCD divisibility over the scaled lattice.
    g = gcd(a * step, b * step) if (a and b) else max(abs(a), abs(b)) * step
    if g == 0:
        return None
    first = -(-delta_lo // g) * g
    if first > delta_hi:
        return None  # GCD test proves independence
    return Conflict(loop, decl.name, write.ref, other.ref,
                    "GCD test cannot rule out overlap")


def _delta_range(write: Access, other: Access,
                 par_var: str) -> Tuple[int, int]:
    """Range of addr_other_variable_part - addr_write_variable_part over
    the inner-loop iteration spaces, with the parallel index excluded
    (its coefficients are handled by the GCD equation).  Unknown inner
    ranges widen to conservative infinity."""
    diff = other.aref.address - write.aref.address  # type: ignore[union-attr]
    diff = diff.drop_var(par_var)
    lo = hi = diff.const
    ranges = {**write.inner_ranges, **other.inner_ranges}
    for name, coeff in diff.coeffs:
        bounds = ranges.get(name)
        if bounds is None:
            return (-(1 << 30), 1 << 30)  # unknown: conservative
        vlo, vhi = bounds
        if coeff >= 0:
            lo += coeff * vlo
            hi += coeff * vhi
        else:
            lo += coeff * vhi
            hi += coeff * vlo
    if diff.sym_coeffs:
        return (-(1 << 30), 1 << 30)
    return (lo, hi)


__all__ = ["Access", "Conflict", "ParCheckResult", "check_doall_independence"]

"""Affine analysis of array subscripts.

The prefetch target analysis of the paper (Fig. 1) requires the compiler
to "construct linear expressions for the addresses of references in
terms of loop induction variables and constants".  This module builds
those linear forms: an :class:`AffineForm` is

    c0  +  Σ ci · var_i  +  Σ sj · sym_j

with integer coefficients over loop induction variables (``var_i``) and
symbolic program constants (``sym_j``, e.g. an unknown problem size).
Subscripts that cannot be put in this form are *non-affine*; per the
paper they are conservatively treated as prefetch targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..ir.arrays import ArrayDecl
from ..ir.expr import (ArrayRef, BinOp, Expr, IntConst, SymConst, UnaryOp,
                       VarRef)


@dataclass(frozen=True)
class AffineForm:
    """An affine integer expression over loop variables and symbols."""

    const: int = 0
    coeffs: Tuple[Tuple[str, int], ...] = ()      # sorted (var, coeff)
    sym_coeffs: Tuple[Tuple[str, int], ...] = ()  # sorted (sym, coeff)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def constant(value: int) -> "AffineForm":
        return AffineForm(const=int(value))

    @staticmethod
    def var(name: str, coeff: int = 1) -> "AffineForm":
        return AffineForm(coeffs=((name, int(coeff)),)) if coeff else AffineForm()

    @staticmethod
    def sym(name: str, coeff: int = 1) -> "AffineForm":
        return AffineForm(sym_coeffs=((name, int(coeff)),)) if coeff else AffineForm()

    # -- algebra -----------------------------------------------------------
    def _combine(self, other: "AffineForm", sign: int) -> "AffineForm":
        coeffs: Dict[str, int] = dict(self.coeffs)
        for name, c in other.coeffs:
            coeffs[name] = coeffs.get(name, 0) + sign * c
        syms: Dict[str, int] = dict(self.sym_coeffs)
        for name, c in other.sym_coeffs:
            syms[name] = syms.get(name, 0) + sign * c
        return AffineForm(
            const=self.const + sign * other.const,
            coeffs=tuple(sorted((k, v) for k, v in coeffs.items() if v)),
            sym_coeffs=tuple(sorted((k, v) for k, v in syms.items() if v)),
        )

    def __add__(self, other: "AffineForm") -> "AffineForm":
        return self._combine(other, 1)

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return self._combine(other, -1)

    def scale(self, factor: int) -> "AffineForm":
        if factor == 0:
            return AffineForm()
        return AffineForm(
            const=self.const * factor,
            coeffs=tuple((k, v * factor) for k, v in self.coeffs),
            sym_coeffs=tuple((k, v * factor) for k, v in self.sym_coeffs),
        )

    # -- queries -------------------------------------------------------------
    def coeff(self, var: str) -> int:
        for name, c in self.coeffs:
            if name == var:
                return c
        return 0

    def is_constant(self) -> bool:
        return not self.coeffs and not self.sym_coeffs

    def is_symbolic(self) -> bool:
        return bool(self.sym_coeffs)

    def variables(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)

    def drop_var(self, var: str) -> "AffineForm":
        return AffineForm(self.const,
                          tuple((k, v) for k, v in self.coeffs if k != var),
                          self.sym_coeffs)

    def same_shape(self, other: "AffineForm") -> bool:
        """True when the two forms differ only in the constant term —
        the *uniformly generated* criterion of the paper."""
        return self.coeffs == other.coeffs and self.sym_coeffs == other.sym_coeffs

    def evaluate(self, env: Dict[str, int]) -> int:
        """Evaluate with concrete variable/symbol values."""
        total = self.const
        for name, c in self.coeffs:
            total += c * env[name]
        for name, c in self.sym_coeffs:
            total += c * env[name]
        return total

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [str(self.const)] if self.const or (not self.coeffs and not self.sym_coeffs) else []
        parts += [f"{c}*{v}" for v, c in self.coeffs]
        parts += [f"{c}*${s}" for s, c in self.sym_coeffs]
        return " + ".join(parts)


def affine_of(expr: Expr) -> Optional[AffineForm]:
    """Build the affine form of an integer expression, or ``None`` if the
    expression is non-affine (products of variables, divisions, calls,
    array-valued subscripts ...)."""
    if isinstance(expr, IntConst):
        return AffineForm.constant(expr.value)
    if isinstance(expr, SymConst):
        return AffineForm.sym(expr.name)
    if isinstance(expr, VarRef):
        return AffineForm.var(expr.name)
    if isinstance(expr, UnaryOp):
        inner = affine_of(expr.operand)
        if inner is None:
            return None
        if expr.op == "-":
            return inner.scale(-1)
        if expr.op == "+":
            return inner
        return None
    if isinstance(expr, BinOp):
        if expr.op == "+" or expr.op == "-":
            left = affine_of(expr.left)
            right = affine_of(expr.right)
            if left is None or right is None:
                return None
            return left + right if expr.op == "+" else left - right
        if expr.op == "*":
            left = affine_of(expr.left)
            right = affine_of(expr.right)
            if left is None or right is None:
                return None
            if left.is_constant() and not left.is_symbolic():
                return right.scale(left.const)
            if right.is_constant() and not right.is_symbolic():
                return left.scale(right.const)
            return None
        return None
    return None


@dataclass(frozen=True)
class AffineRef:
    """A fully-affine array reference: one :class:`AffineForm` per
    dimension plus the derived linear *address* form in elements."""

    array: str
    dims: Tuple[AffineForm, ...]
    address: AffineForm  # 0-based linear element offset within the array

    def innermost_stride(self, var: str) -> int:
        """Element stride of the address as ``var`` advances by 1."""
        return self.address.coeff(var)

    def uniformly_generated_with(self, other: "AffineRef") -> bool:
        """Same array, same index coefficients, constants may differ
        (paper: 'similar array index functions which differ only in the
        constant term')."""
        return (self.array == other.array
                and len(self.dims) == len(other.dims)
                and all(a.same_shape(b) for a, b in zip(self.dims, other.dims))
                and self.address.same_shape(other.address))


def affine_ref(ref: ArrayRef, decl: ArrayDecl) -> Optional[AffineRef]:
    """Affine form of every subscript of ``ref``, or ``None`` when any
    subscript is non-affine.  The linear address uses the declaration's
    column-major strides and 1-based subscripts."""
    dims = []
    for sub in ref.subscripts:
        form = affine_of(sub)
        if form is None:
            return None
        dims.append(form)
    address = AffineForm()
    for form, stride in zip(dims, decl.strides()):
        address = address + (form - AffineForm.constant(1)).scale(stride)
    return AffineRef(ref.array, tuple(dims), address)


__all__ = ["AffineForm", "AffineRef", "affine_of", "affine_ref"]

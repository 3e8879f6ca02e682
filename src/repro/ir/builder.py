"""Fluent builder API for constructing IR programs in Python.

The workloads package builds MXM/VPENTA/TOMCATV/SWIM through this API;
the examples show it as the primary user-facing way to feed a program to
the CCDP compiler.  Usage::

    b = ProgramBuilder("mxm")
    b.shared("a", (n, n))
    b.shared("b", (n, n))
    b.shared("c", (n, n))
    with b.proc("main"):
        with b.doall("j", 1, n):
            with b.do("i", 1, n):
                with b.do("k", 1, n):
                    b.assign(b.ref("c", "i", "j"),
                             b.ref("c", "i", "j") + b.ref("a", "i", "k") * b.ref("b", "k", "j"))
    program = b.finish()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

from .arrays import ArrayDecl, DistKind, Distribution, REPLICATED
from .dtypes import DType, REAL
from .expr import (ArrayRef, BinOp, Expr, IntrinsicCall, SymConst, VarRef,
                   as_expr)
from .program import Procedure, Program, ScalarDecl
from .stmt import Assign, CallStmt, If, Loop, LoopKind, ScheduleKind, Stmt


class E:
    """Operator-overloading wrapper so builder code reads like Fortran."""

    __slots__ = ("node",)

    def __init__(self, node) -> None:
        if isinstance(node, E):
            node = node.node
        self.node = as_expr(node)

    def _wrap(self, op: str, other, swap: bool = False) -> "E":
        left, right = (E(other).node, self.node) if swap else (self.node, E(other).node)
        return E(BinOp(op, left, right))

    def __add__(self, o): return self._wrap("+", o)
    def __radd__(self, o): return self._wrap("+", o, swap=True)
    def __sub__(self, o): return self._wrap("-", o)
    def __rsub__(self, o): return self._wrap("-", o, swap=True)
    def __mul__(self, o): return self._wrap("*", o)
    def __rmul__(self, o): return self._wrap("*", o, swap=True)
    def __truediv__(self, o): return self._wrap("/", o)
    def __rtruediv__(self, o): return self._wrap("/", o, swap=True)
    def __pow__(self, o): return self._wrap("**", o)
    def __neg__(self): return E(BinOp("-", as_expr(0), self.node))
    def __lt__(self, o): return self._wrap("<", o)
    def __le__(self, o): return self._wrap("<=", o)
    def __gt__(self, o): return self._wrap(">", o)
    def __ge__(self, o): return self._wrap(">=", o)
    def eq(self, o): return self._wrap("==", o)
    def ne(self, o): return self._wrap("!=", o)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"E({self.node!r})"


def unwrap(value) -> Expr:
    return value.node if isinstance(value, E) else as_expr(value)


def sqrt(x) -> E:
    return E(IntrinsicCall("sqrt", [unwrap(x)]))


def abs_(x) -> E:
    return E(IntrinsicCall("abs", [unwrap(x)]))


def fmin(a, b) -> E:
    return E(IntrinsicCall("min", [unwrap(a), unwrap(b)]))


def fmax(a, b) -> E:
    return E(IntrinsicCall("max", [unwrap(a), unwrap(b)]))


class ProgramBuilder:
    """Builds a :class:`~repro.ir.program.Program` with nested `with`
    blocks for loops/ifs/procedures."""

    def __init__(self, name: str = "main") -> None:
        self.program = Program(name)
        self._body_stack: List[List[Stmt]] = []
        self._current_proc: Optional[Procedure] = None

    # -- declarations -----------------------------------------------------
    def shared(self, name: str, shape: Sequence[int], dtype: DType = REAL,
               dist_axis: int = -1, dist_kind: str = DistKind.BLOCK) -> ArrayDecl:
        """Declare a shared (distributed) array; default BLOCK on last axis
        as in the paper's case studies."""
        decl = ArrayDecl(name, tuple(shape), dtype, Distribution(dist_kind, dist_axis))
        return self.program.declare_array(decl)

    def private(self, name: str, shape: Sequence[int], dtype: DType = REAL) -> ArrayDecl:
        decl = ArrayDecl(name, tuple(shape), dtype, REPLICATED)
        return self.program.declare_array(decl)

    def scalar(self, name: str, dtype: DType = REAL, init: Optional[float] = None) -> ScalarDecl:
        return self.program.declare_scalar(ScalarDecl(name, dtype, init))

    def sym(self, name: str, value: Optional[int] = None) -> E:
        """A symbolic constant (compile-time-unknown size); optionally bind
        its runtime value immediately."""
        if value is not None:
            self.program.bind(**{name: value})
        return E(SymConst(name))

    # -- structure ----------------------------------------------------------
    @contextmanager
    def proc(self, name: str, params: Tuple[str, ...] = ()) -> Iterator[None]:
        if self._current_proc is not None:
            raise RuntimeError("procedures cannot nest")
        proc = Procedure(name, [], params)
        self._current_proc = proc
        self._body_stack.append(proc.body)
        try:
            yield
        finally:
            self._body_stack.pop()
            self._current_proc = None
            self.program.add_procedure(proc)

    @property
    def _body(self) -> List[Stmt]:
        if not self._body_stack:
            raise RuntimeError("statement emitted outside a procedure")
        return self._body_stack[-1]

    def emit(self, stmt: Stmt) -> Stmt:
        self._body.append(stmt)
        return stmt

    @contextmanager
    def do(self, var: str, lower, upper, step=1, label: str = "") -> Iterator[Loop]:
        loop = Loop(var, unwrap(lower), unwrap(upper), unwrap(step),
                    kind=LoopKind.SERIAL, label=label)
        self.emit(loop)
        self._body_stack.append(loop.body)
        try:
            yield loop
        finally:
            self._body_stack.pop()

    @contextmanager
    def doall(self, var: str, lower, upper, step=1,
              schedule: str = ScheduleKind.STATIC_BLOCK, label: str = "",
              align: str = "") -> Iterator[Loop]:
        loop = Loop(var, unwrap(lower), unwrap(upper), unwrap(step),
                    kind=LoopKind.DOALL, schedule=schedule, label=label,
                    align=align)
        self.emit(loop)
        self._body_stack.append(loop.body)
        try:
            yield loop
        finally:
            self._body_stack.pop()

    @contextmanager
    def if_(self, cond) -> Iterator[If]:
        node = If(unwrap(cond), [])
        self.emit(node)
        self._body_stack.append(node.then_body)
        try:
            yield node
        finally:
            self._body_stack.pop()

    @contextmanager
    def else_(self, if_node: If) -> Iterator[None]:
        self._body_stack.append(if_node.else_body)
        try:
            yield
        finally:
            self._body_stack.pop()

    # -- leaf statements ------------------------------------------------------
    def ref(self, array: str, *subscripts) -> E:
        return E(ArrayRef(array, [unwrap(s) for s in subscripts]))

    def var(self, name: str) -> E:
        return E(VarRef(name))

    def assign(self, lhs, rhs) -> Assign:
        target = unwrap(lhs)
        if not isinstance(target, (ArrayRef, VarRef)):
            raise TypeError("assignment target must be an array or scalar reference")
        return self.emit(Assign(target, unwrap(rhs)))  # type: ignore[return-value]

    def call(self, name: str, *args) -> CallStmt:
        return self.emit(CallStmt(name, [unwrap(a) for a in args]))  # type: ignore[return-value]

    # -- finish -----------------------------------------------------------------
    def finish(self, entry: str = "main") -> Program:
        if entry not in self.program.procedures:
            raise ValueError(f"entry procedure {entry!r} was never defined")
        self.program.entry = entry
        from .validate import validate_program
        validate_program(self.program)
        return self.program


__all__ = ["ProgramBuilder", "E", "unwrap", "sqrt", "abs_", "fmin", "fmax"]

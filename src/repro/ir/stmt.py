"""Statement nodes of the parallel IR.

The statement language mirrors the subset of CRAFT Fortran the paper's
case studies use: assignments over distributed arrays, serial ``DO``
loops, parallel ``DOALL`` loops (static or dynamic iteration
scheduling), ``IF`` statements, and procedure calls.  CCDP code
generation extends the language with explicit cache-management
operations (:class:`PrefetchLine`, :class:`PrefetchVector`,
:class:`InvalidateLines`) that the runtime executes against the machine
model.

Statement bodies are plain Python lists; :mod:`repro.ir.visitor`
provides the traversal and rewriting machinery.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence, Tuple

from .expr import ArrayRef, Expr, VarRef, as_expr

_uid_counter = itertools.count(1)


class LoopKind:
    """Loop flavours distinguished by the scheduling algorithm (Fig. 2)."""

    SERIAL = "serial"    #: ordinary DO loop, executed by one task
    DOALL = "doall"      #: parallel loop; iterations have no dependences


class ScheduleKind:
    """Iteration-scheduling policy of a DOALL loop."""

    STATIC_BLOCK = "static_block"    #: contiguous chunks, PE p gets chunk p
    STATIC_CYCLIC = "static_cyclic"  #: round-robin iterations
    DYNAMIC = "dynamic"              #: self-scheduled at run time


class Stmt:
    """Base class of all statements."""

    __slots__ = ("uid", "origin")

    def __init__(self) -> None:
        self.uid: int = next(_uid_counter)
        self.origin: Optional[int] = None

    def _stamp(self, fresh: "Stmt") -> "Stmt":
        fresh.origin = self.origin if self.origin is not None else self.uid
        return fresh

    # Every subclass provides expressions() (direct child expressions) and
    # bodies() (lists of nested statements) so generic walkers work.
    def expressions(self) -> Sequence[Expr]:
        return ()

    def bodies(self) -> Sequence[List["Stmt"]]:
        return ()

    def clone(self) -> "Stmt":
        raise NotImplementedError

    def walk(self) -> Iterator["Stmt"]:
        """Yield this statement and all nested statements, pre-order."""
        yield self
        for body in self.bodies():
            for stmt in body:
                yield from stmt.walk()

    def walk_exprs(self) -> Iterator[Expr]:
        for stmt in self.walk():
            for expr in stmt.expressions():
                yield from expr.walk()

    def array_refs(self) -> Iterator[ArrayRef]:
        for expr in self.walk_exprs():
            if isinstance(expr, ArrayRef):
                yield expr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        from .printer import format_stmt

        return format_stmt(self).rstrip()


def clone_body(body: Sequence[Stmt]) -> List[Stmt]:
    return [s.clone() for s in body]


class Assign(Stmt):
    """``lhs = rhs``.  ``lhs`` is an :class:`ArrayRef` (store) or a
    :class:`VarRef` (scalar definition)."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs) -> None:
        super().__init__()
        if not isinstance(lhs, (ArrayRef, VarRef)):
            raise TypeError(f"assignment target must be ArrayRef or VarRef, got {type(lhs).__name__}")
        self.lhs = lhs
        self.rhs = as_expr(rhs)

    def expressions(self) -> Sequence[Expr]:
        return (self.lhs, self.rhs)

    def clone(self) -> "Assign":
        return self._stamp(Assign(self.lhs.clone(), self.rhs.clone()))  # type: ignore[return-value]


class Loop(Stmt):
    """A counted loop ``do var = lower, upper [, step]``.

    ``kind`` selects serial vs DOALL; ``schedule`` applies to DOALL loops
    only.  Bounds may be constants, scalars, or :class:`SymConst`; the
    paper's scheduling algorithm branches on whether the trip count is a
    compile-time constant (:meth:`repro.ir.loop.static_trip_count`).

    DOALL loops additionally carry a ``preamble``: statements each PE
    executes once per epoch *before* its iterations, with the pseudo
    variables ``__lo_<var>``, ``__hi_<var>`` and ``__cnt_<var>`` bound to
    the PE's iteration chunk.  CCDP vector prefetch generation hoists
    per-PE block prefetches there.

    ``align`` names a shared array whose distributed axis defines the
    iteration-to-PE mapping (owner-computes, CRAFT ``doshared``-style):
    iteration ``v`` executes on the PE owning index ``v`` of that axis.
    Without it, STATIC_BLOCK chunks the loop's own range evenly.
    """

    __slots__ = ("var", "lower", "upper", "step", "body", "kind", "schedule",
                 "label", "preamble", "align")

    def __init__(self, var: str, lower, upper, step=1, body: Optional[Sequence[Stmt]] = None,
                 kind: str = LoopKind.SERIAL, schedule: str = ScheduleKind.STATIC_BLOCK,
                 label: str = "", preamble: Optional[Sequence[Stmt]] = None,
                 align: str = "") -> None:
        super().__init__()
        self.var = var
        self.lower = as_expr(lower)
        self.upper = as_expr(upper)
        self.step = as_expr(step)
        self.body: List[Stmt] = list(body or [])
        if kind not in (LoopKind.SERIAL, LoopKind.DOALL):
            raise ValueError(f"unknown loop kind {kind!r}")
        if schedule not in (ScheduleKind.STATIC_BLOCK, ScheduleKind.STATIC_CYCLIC, ScheduleKind.DYNAMIC):
            raise ValueError(f"unknown schedule {schedule!r}")
        self.kind = kind
        self.schedule = schedule
        self.label = label
        self.preamble: List[Stmt] = list(preamble or [])
        if self.preamble and kind != LoopKind.DOALL:
            raise ValueError("only DOALL loops may carry a preamble")
        self.align = align
        if align and kind != LoopKind.DOALL:
            raise ValueError("only DOALL loops may be owner-aligned")

    @property
    def is_parallel(self) -> bool:
        return self.kind == LoopKind.DOALL

    def chunk_vars(self) -> Tuple[str, str, str]:
        """Names of the per-PE chunk pseudo-variables visible in the
        preamble: (lower, upper, count)."""
        return (f"__lo_{self.var}", f"__hi_{self.var}", f"__cnt_{self.var}")

    def expressions(self) -> Sequence[Expr]:
        return (self.lower, self.upper, self.step)

    def bodies(self) -> Sequence[List[Stmt]]:
        if self.preamble:
            return (self.preamble, self.body)
        return (self.body,)

    def clone(self) -> "Loop":
        fresh = Loop(self.var, self.lower.clone(), self.upper.clone(), self.step.clone(),
                     clone_body(self.body), self.kind, self.schedule, self.label,
                     clone_body(self.preamble), self.align)
        return self._stamp(fresh)  # type: ignore[return-value]


class If(Stmt):
    """``if cond then ... [else ...] end if``."""

    __slots__ = ("cond", "then_body", "else_body")

    def __init__(self, cond, then_body: Sequence[Stmt], else_body: Optional[Sequence[Stmt]] = None) -> None:
        super().__init__()
        self.cond = as_expr(cond)
        self.then_body: List[Stmt] = list(then_body)
        self.else_body: List[Stmt] = list(else_body or [])

    def expressions(self) -> Sequence[Expr]:
        return (self.cond,)

    def bodies(self) -> Sequence[List[Stmt]]:
        return (self.then_body, self.else_body)

    def clone(self) -> "If":
        fresh = If(self.cond.clone(), clone_body(self.then_body), clone_body(self.else_body))
        return self._stamp(fresh)  # type: ignore[return-value]


class CallStmt(Stmt):
    """Call of a user procedure, by name.  Arguments are expressions;
    array arguments are passed by name (whole-array aliasing), matching
    how the paper's interprocedural analysis summarises callees."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr] = ()) -> None:
        super().__init__()
        self.name = name
        self.args = [as_expr(a) for a in args]

    def expressions(self) -> Sequence[Expr]:
        return tuple(self.args)

    def clone(self) -> "CallStmt":
        return self._stamp(CallStmt(self.name, [a.clone() for a in self.args]))  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Cache-management statements inserted by CCDP code generation.
# ---------------------------------------------------------------------------

class PrefetchLine(Stmt):
    """Prefetch the cache line containing ``ref`` into this PE's prefetch
    queue.  ``invalidate_first`` encodes the paper's correctness rule: on
    hardware without in-flight masking, the stale cached line must be
    invalidated *before* the prefetch is issued."""

    __slots__ = ("ref", "invalidate_first", "for_uid", "distance")

    def __init__(self, ref: ArrayRef, invalidate_first: bool = True,
                 for_uid: Optional[int] = None, distance: int = 0) -> None:
        super().__init__()
        self.ref = ref
        self.invalidate_first = invalidate_first
        self.for_uid = for_uid      #: uid of the reference occurrence served
        self.distance = distance    #: software-pipelining lookahead, iterations

    def expressions(self) -> Sequence[Expr]:
        return (self.ref,)

    def clone(self) -> "PrefetchLine":
        fresh = PrefetchLine(self.ref.clone(), self.invalidate_first, self.for_uid, self.distance)
        return self._stamp(fresh)  # type: ignore[return-value]


class PrefetchVector(Stmt):
    """Vector prefetch: fetch ``length`` elements of ``array`` starting at
    the element addressed by ``start_subscripts``, walking dimension
    ``axis`` with ``stride`` elements per step (the SHMEM ``shmem_get``
    analogue on the T3D).  Lines are installed in the cache when the
    transfer completes."""

    __slots__ = ("array", "start_subscripts", "axis", "stride", "length", "invalidate_first", "for_uid")

    def __init__(self, array: str, start_subscripts: Sequence[Expr], axis: int,
                 length, stride=1, invalidate_first: bool = True,
                 for_uid: Optional[int] = None) -> None:
        super().__init__()
        self.array = array
        self.start_subscripts = [as_expr(s) for s in start_subscripts]
        self.axis = axis
        self.stride = as_expr(stride)
        self.length = as_expr(length)
        self.invalidate_first = invalidate_first
        self.for_uid = for_uid

    def expressions(self) -> Sequence[Expr]:
        return tuple(self.start_subscripts) + (self.stride, self.length)

    def clone(self) -> "PrefetchVector":
        fresh = PrefetchVector(self.array, [s.clone() for s in self.start_subscripts],
                               self.axis, self.length.clone(), self.stride.clone(),
                               self.invalidate_first, self.for_uid)
        return self._stamp(fresh)  # type: ignore[return-value]


class InvalidateLines(Stmt):
    """Invalidate the cache lines covering ``length`` elements of
    ``array`` along ``axis`` from ``start_subscripts`` (used when a
    potentially-stale region will be re-read through normal loads)."""

    __slots__ = ("array", "start_subscripts", "axis", "length")

    def __init__(self, array: str, start_subscripts: Sequence[Expr], axis: int, length) -> None:
        super().__init__()
        self.array = array
        self.start_subscripts = [as_expr(s) for s in start_subscripts]
        self.axis = axis
        self.length = as_expr(length)

    def expressions(self) -> Sequence[Expr]:
        return tuple(self.start_subscripts) + (self.length,)

    def clone(self) -> "InvalidateLines":
        fresh = InvalidateLines(self.array, [s.clone() for s in self.start_subscripts],
                                self.axis, self.length.clone())
        return self._stamp(fresh)  # type: ignore[return-value]


PREFETCH_STMTS = (PrefetchLine, PrefetchVector)

__all__ = [
    "Stmt", "Assign", "Loop", "If", "CallStmt",
    "PrefetchLine", "PrefetchVector", "InvalidateLines",
    "LoopKind", "ScheduleKind", "clone_body", "PREFETCH_STMTS",
]

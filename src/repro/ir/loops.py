"""Loop-structure utilities shared by the CCDP analyses.

The paper's algorithms are phrased over "inner loops and serial code
segments" (LSCs).  :func:`collect_lscs` partitions a procedure body into
exactly those units, preserving the context the Fig. 2 scheduler needs:
whether an LSC lies inside an IF branch (case 6), whether a loop body
contains IF statements (case 5), the loop kind/schedule (cases 1-3), and
straight-line serial segments (case 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .stmt import CallStmt, If, Loop, Stmt
from .visitor import const_int_value


def static_trip_count(loop: Loop, symbols: Optional[Dict[str, int]] = None) -> Optional[int]:
    """Compile-time trip count, or ``None`` when bounds are unknown."""
    lo = const_int_value(loop.lower, symbols)
    hi = const_int_value(loop.upper, symbols)
    st = const_int_value(loop.step, symbols)
    if lo is None or hi is None or st in (None, 0):
        return None
    if st > 0:
        return max(0, (hi - lo) // st + 1)
    return max(0, (lo - hi) // (-st) + 1)


def has_static_bounds(loop: Loop) -> bool:
    """True when the paper's scheduler may treat the bounds as known."""
    return static_trip_count(loop) is not None


def is_innermost(loop: Loop) -> bool:
    """A loop with no loop anywhere inside its body."""
    return not any(isinstance(s, Loop) for stmt in loop.body for s in stmt.walk())


def inner_loops(body: Sequence[Stmt]) -> List[Loop]:
    """All innermost loops in a statement list."""
    return [s for stmt in body for s in stmt.walk()
            if isinstance(s, Loop) and is_innermost(s)]


def contains_if(loop: Loop) -> bool:
    return any(isinstance(s, If) for stmt in loop.body for s in stmt.walk())


def contains_call(loop: Loop) -> bool:
    return any(isinstance(s, CallStmt) for stmt in loop.body for s in stmt.walk())


def loop_nest_of(body: Sequence[Stmt]) -> List[List[Loop]]:
    """Every root-to-innermost loop-nest path in a body."""
    paths: List[List[Loop]] = []

    def visit(stmts: Sequence[Stmt], stack: List[Loop]) -> None:
        for stmt in stmts:
            if isinstance(stmt, Loop):
                stack.append(stmt)
                if is_innermost(stmt):
                    paths.append(list(stack))
                else:
                    for inner_body in stmt.bodies():
                        visit(inner_body, stack)
                stack.pop()
            else:
                for inner_body in stmt.bodies():
                    visit(inner_body, stack)

    visit(body, [])
    return paths


# ---------------------------------------------------------------------------
# LSC partitioning (the unit over which Fig. 1 and Fig. 2 iterate)
# ---------------------------------------------------------------------------

@dataclass
class LSC:
    """An *inner Loop or Serial Code segment*.

    Attributes
    ----------
    loop:
        The innermost loop, or ``None`` for a straight-line serial
        segment.
    stmts:
        For serial segments, the statements of the segment; for loops,
        the loop body.
    enclosing_loops:
        Loop stack around this LSC, outermost first (the innermost entry
        for a loop LSC is the loop itself's parent chain — it excludes
        ``loop``).
    in_if_branch:
        True when the LSC sits inside the body of an IF statement
        (paper Fig. 2 case 6).
    parent_body:
        The statement list that directly contains the LSC's statements —
        the insertion site for hoisted prefetches.
    """

    loop: Optional[Loop]
    stmts: List[Stmt]
    enclosing_loops: List[Loop] = field(default_factory=list)
    in_if_branch: bool = False
    parent_body: Optional[List[Stmt]] = None
    index_in_parent: int = 0

    @property
    def is_loop(self) -> bool:
        return self.loop is not None

    def describe(self) -> str:
        if self.loop is None:
            return f"serial segment ({len(self.stmts)} stmts)"
        kind = "doall" if self.loop.is_parallel else "do"
        label = f" [{self.loop.label}]" if self.loop.label else ""
        return f"{kind} {self.loop.var}{label}"


def collect_lscs(body: List[Stmt]) -> List[LSC]:
    """Partition a procedure body into inner loops and serial segments.

    Straight-line runs of non-loop statements become serial-segment
    LSCs; loops are recursed into until an innermost loop is found.

    ``body`` must be the *actual* statement list (not a copy): each LSC's
    ``parent_body`` aliases it so schedulers can insert statements.
    """
    out: List[LSC] = []
    _collect(body, [], False, out)
    return out


def _collect(body: List[Stmt], loop_stack: List[Loop], in_if: bool, out: List[LSC]) -> None:
    run: List[Stmt] = []
    run_start = 0

    def flush(end_index: int) -> None:
        nonlocal run
        if run:
            out.append(LSC(loop=None, stmts=list(run), enclosing_loops=list(loop_stack),
                           in_if_branch=in_if, parent_body=body, index_in_parent=run_start))
            run = []

    for idx, stmt in enumerate(body):
        if isinstance(stmt, Loop):
            flush(idx)
            if is_innermost(stmt):
                out.append(LSC(loop=stmt, stmts=stmt.body, enclosing_loops=list(loop_stack),
                               in_if_branch=in_if, parent_body=body, index_in_parent=idx))
            else:
                loop_stack.append(stmt)
                _collect(stmt.body, loop_stack, in_if, out)
                loop_stack.pop()
        elif isinstance(stmt, If):
            flush(idx)
            _collect(stmt.then_body, loop_stack, True, out)
            _collect(stmt.else_body, loop_stack, True, out)
        else:
            if not run:
                run_start = idx
            run.append(stmt)
    flush(len(body))


def enclosing_loop_vars(lsc: LSC) -> List[str]:
    """Induction variables visible inside the LSC, outermost first."""
    names = [l.var for l in lsc.enclosing_loops]
    if lsc.loop is not None:
        names.append(lsc.loop.var)
    return names


__all__ = [
    "LSC", "collect_lscs", "static_trip_count", "has_static_bounds",
    "is_innermost", "inner_loops", "contains_if", "contains_call",
    "loop_nest_of", "enclosing_loop_vars",
]

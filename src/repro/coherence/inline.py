"""Inlining of parallelism-carrying procedure calls.

The CCDP transformation rewrites statements in place, so references
inside procedures that contribute epochs to the entry procedure's
structure must be materialised there first.  This pass replaces every
``call p(...)`` whose callee (transitively) contains a DOALL loop with
the callee's body, formal scalars substituted by the actual argument
expressions.  Purely-serial callees stay as calls and are handled by
interprocedural summaries.
"""

from __future__ import annotations


from ..analysis.callgraph import CallGraph
from ..ir.program import Program
from ..ir.stmt import CallStmt, Stmt
from ..ir.visitor import rewrite_body, substitute_in_stmt


def inline_parallel_calls(program: Program, max_depth: int = 16) -> int:
    """Inline calls-with-parallelism into the entry procedure, in place.
    Returns the number of call sites inlined.  Raises on recursion among
    parallelism-carrying procedures."""
    callgraph = CallGraph.build(program)
    inlined = 0
    entry = program.entry_proc

    for _ in range(max_depth):
        changed = False

        def expand(stmt: Stmt):
            nonlocal inlined, changed
            if isinstance(stmt, CallStmt) and callgraph.contains_parallelism(stmt.name):
                if callgraph.is_recursive(stmt.name):
                    raise ValueError(
                        f"cannot inline recursive parallel procedure {stmt.name!r}")
                callee = program.procedures[stmt.name]
                bindings = {formal: actual
                            for formal, actual in zip(callee.params, stmt.args)}
                changed = True
                inlined += 1
                return [substitute_in_stmt(s, bindings) for s in callee.body]
            return None

        entry.body = rewrite_body(entry.body, expand)
        if not changed:
            return inlined
    raise ValueError("parallel-call inlining did not converge "
                     f"within {max_depth} rounds (deep call chain?)")


__all__ = ["inline_parallel_calls"]

"""Static execution-time estimation.

The software-pipelining scheduler needs the execution time of a loop
body ("the compiler can compute the loop execution time since the
number of clock cycles taken by each instruction is known"), and the
move-back scheduler needs the cycle distance between a hoisted prefetch
and its use.  This model charges published per-operation costs and
assumes cache hits for memory references — the standard assumption when
sizing prefetch distances (a miss only makes the prefetch *earlier*
relative to need, which is the safe direction given queue bounds).
"""

from __future__ import annotations

from typing import Sequence

from ..ir.expr import (ArrayRef, BinOp, Expr, FloatConst, IntConst,
                       IntrinsicCall, SymConst, UnaryOp, VarRef, expr_dtype)
from ..ir.loops import static_trip_count
from ..ir.stmt import (Assign, CallStmt, If, InvalidateLines, Loop,
                       PrefetchLine, PrefetchVector, Stmt)
from ..machine.params import MachineParams

#: Assumed trip count for loops whose bounds are unknown at compile time.
DEFAULT_TRIP = 32

#: Assumed cost of calling an unanalysed procedure.
CALL_COST = 200.0


def expr_cost(expr: Expr, params: MachineParams) -> float:
    """Estimated cycles to evaluate an expression (loads assumed hits)."""
    if isinstance(expr, (IntConst, FloatConst, SymConst, VarRef)):
        return 0.0
    if isinstance(expr, ArrayRef):
        cost = float(params.cache_hit)
        for sub in expr.subscripts:
            cost += expr_cost(sub, params)
        return cost
    if isinstance(expr, UnaryOp):
        return params.int_op + expr_cost(expr.operand, params)
    if isinstance(expr, IntrinsicCall):
        return params.intrinsic_cost + sum(expr_cost(a, params) for a in expr.args)
    if isinstance(expr, BinOp):
        inner = expr_cost(expr.left, params) + expr_cost(expr.right, params)
        is_real = expr_dtype(expr).is_real()
        if expr.op in ("+", "-"):
            return inner + (params.flop_add if is_real else params.int_op)
        if expr.op == "*":
            return inner + (params.flop_mul if is_real else params.int_op)
        if expr.op in ("/", "**"):
            return inner + params.flop_div
        return inner + params.int_op
    return params.int_op


def stmt_cost(stmt: Stmt, params: MachineParams) -> float:
    """Estimated cycles to execute one statement once."""
    if isinstance(stmt, Assign):
        cost = expr_cost(stmt.rhs, params) + float(params.write_local)
        if isinstance(stmt.lhs, ArrayRef):
            for sub in stmt.lhs.subscripts:
                cost += expr_cost(sub, params)
        return cost
    if isinstance(stmt, If):
        then_cost = sum(stmt_cost(s, params) for s in stmt.then_body)
        else_cost = sum(stmt_cost(s, params) for s in stmt.else_body)
        return (expr_cost(stmt.cond, params) + params.int_op
                + 0.5 * (then_cost + else_cost))
    if isinstance(stmt, Loop):
        trip = static_trip_count(stmt)
        if trip is None:
            trip = DEFAULT_TRIP
        body = sum(stmt_cost(s, params) for s in stmt.body)
        return trip * (body + params.loop_overhead)
    if isinstance(stmt, CallStmt):
        return CALL_COST
    if isinstance(stmt, PrefetchLine):
        return float(params.prefetch_issue)
    if isinstance(stmt, PrefetchVector):
        return float(params.vector_startup)
    if isinstance(stmt, InvalidateLines):
        return float(params.int_op)
    return float(params.int_op)


def loop_body_cost(loop: Loop, params: MachineParams) -> float:
    """Cycles per iteration of ``loop`` (body + loop overhead)."""
    return sum(stmt_cost(s, params) for s in loop.body) + params.loop_overhead


def segment_cost(stmts: Sequence[Stmt], params: MachineParams) -> float:
    return sum(stmt_cost(s, params) for s in stmts)


def average_remote_latency(params: MachineParams) -> float:
    """Mean remote read latency over the torus — the 'average memory
    latency for a prefetch operation' the scheduler divides by."""
    from ..machine.topology import torus_for

    torus = torus_for(params.n_pes)
    return params.remote_base + params.remote_per_hop * torus.mean_hops()


__all__ = ["expr_cost", "stmt_cost", "loop_body_cost", "segment_cost",
           "average_remote_latency", "DEFAULT_TRIP", "CALL_COST"]

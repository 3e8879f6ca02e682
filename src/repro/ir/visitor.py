"""Generic traversal, substitution and rewriting over the IR.

These utilities are deliberately structural (no per-pass visitor
classes): passes compose small functions over ``walk()`` streams, and
rewrites rebuild expression trees functionally while statement bodies
are edited in place through :func:`rewrite_body`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from .expr import (ArrayRef, BinOp, Expr, IntConst, IntrinsicCall, SymConst,
                   UnaryOp, VarRef)
from .stmt import Stmt


# ---------------------------------------------------------------------------
# Expression rewriting
# ---------------------------------------------------------------------------

def map_expr(expr: Expr, fn: Callable[[Expr], Optional[Expr]]) -> Expr:
    """Bottom-up rewrite: children are rewritten first, then ``fn`` is
    offered the rebuilt node; returning ``None`` keeps it."""
    rebuilt = _rebuild(expr, [map_expr(c, fn) for c in expr.children()])
    replacement = fn(rebuilt)
    return rebuilt if replacement is None else replacement


def _rebuild(expr: Expr, children: Sequence[Expr]) -> Expr:
    if not children:
        return expr
    if isinstance(expr, ArrayRef):
        fresh = ArrayRef(expr.array, list(children), expr.mode)
    elif isinstance(expr, BinOp):
        fresh = BinOp(expr.op, children[0], children[1])
    elif isinstance(expr, UnaryOp):
        fresh = UnaryOp(expr.op, children[0])
    elif isinstance(expr, IntrinsicCall):
        fresh = IntrinsicCall(expr.name, list(children))
    else:  # pragma: no cover - leaf nodes have no children
        raise TypeError(f"cannot rebuild {type(expr).__name__}")
    fresh.origin = expr.origin if expr.origin is not None else expr.uid
    return fresh


def substitute(expr: Expr, bindings: Dict[str, Expr]) -> Expr:
    """Replace free scalar variables by expressions (used by loop
    transformations, e.g. software pipelining substitutes ``i -> i+d``)."""

    def repl(node: Expr) -> Optional[Expr]:
        if isinstance(node, VarRef) and node.name in bindings:
            return bindings[node.name].clone()
        return None

    return map_expr(expr, repl)


def substitute_in_stmt(stmt: Stmt, bindings: Dict[str, Expr]) -> Stmt:
    """Clone ``stmt`` with variable substitutions applied to every
    expression (bodies included)."""
    fresh = stmt.clone()
    _substitute_inplace(fresh, bindings)
    return fresh


def _substitute_inplace(stmt: Stmt, bindings: Dict[str, Expr]) -> None:
    for attr in _expr_attrs(stmt):
        value = getattr(stmt, attr)
        if isinstance(value, list):
            setattr(stmt, attr, [substitute(v, bindings) for v in value])
        else:
            setattr(stmt, attr, substitute(value, bindings))
    for body in stmt.bodies():
        for child in body:
            _substitute_inplace(child, bindings)


def _expr_attrs(stmt: Stmt) -> List[str]:
    """Names of attributes on ``stmt`` holding Expr or list-of-Expr."""
    out = []
    for attr in getattr(type(stmt), "__slots__", ()):
        value = getattr(stmt, attr, None)
        if isinstance(value, Expr):
            out.append(attr)
        elif isinstance(value, list) and value and isinstance(value[0], Expr):
            out.append(attr)
    return out


# ---------------------------------------------------------------------------
# Constant folding / evaluation
# ---------------------------------------------------------------------------

_FOLD_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a // b if isinstance(a, int) and isinstance(b, int) else a / b,
    "mod": lambda a, b: a % b,
    "min": min,
    "max": max,
}


def const_int_value(expr: Expr, symbols: Optional[Dict[str, int]] = None) -> Optional[int]:
    """Evaluate an integer expression to a Python int if possible.

    ``symbols`` optionally resolves :class:`SymConst`; without it,
    symbolic sizes make the result ``None`` (compile-time unknown), which
    is exactly the distinction the paper's scheduling algorithm needs.
    """
    if isinstance(expr, IntConst):
        return expr.value
    if isinstance(expr, SymConst):
        if symbols is not None and expr.name in symbols:
            return int(symbols[expr.name])
        return None
    if isinstance(expr, UnaryOp):
        v = const_int_value(expr.operand, symbols)
        if v is None:
            return None
        return -v if expr.op == "-" else v
    if isinstance(expr, IntrinsicCall) and expr.name in ("min", "max", "mod", "int"):
        values = [const_int_value(a, symbols) for a in expr.args]
        if any(v is None for v in values):
            return None
        if expr.name == "min":
            return min(values)  # type: ignore[type-var]
        if expr.name == "max":
            return max(values)  # type: ignore[type-var]
        if expr.name == "mod":
            return values[0] % values[1] if values[1] else None  # type: ignore[operator]
        return values[0]
    if isinstance(expr, BinOp) and expr.op in _FOLD_OPS:
        left = const_int_value(expr.left, symbols)
        right = const_int_value(expr.right, symbols)
        if left is None or right is None:
            return None
        if expr.op == "/" and right != 0 and left % right != 0:
            return left // right
        if expr.op in ("/", "mod") and right == 0:
            return None
        return int(_FOLD_OPS[expr.op](left, right))
    return None


# ---------------------------------------------------------------------------
# Statement-body rewriting
# ---------------------------------------------------------------------------

def rewrite_body(body: List[Stmt], fn: Callable[[Stmt], Optional[List[Stmt]]]) -> List[Stmt]:
    """Rewrite a statement list recursively (post-order on bodies).

    ``fn`` maps a statement to a replacement list (possibly empty, to
    delete) or ``None`` to keep it unchanged.  Nested bodies are
    rewritten in place first.
    """
    out: List[Stmt] = []
    for stmt in body:
        for nested in stmt.bodies():
            nested[:] = rewrite_body(list(nested), fn)
        replacement = fn(stmt)
        if replacement is None:
            out.append(stmt)
        else:
            out.extend(replacement)
    return out


def find_statements(body: Iterable[Stmt], predicate: Callable[[Stmt], bool]) -> List[Stmt]:
    out = []
    for stmt in body:
        for node in stmt.walk():
            if predicate(node):
                out.append(node)
    return out


def parent_map(body: Iterable[Stmt]) -> Dict[int, Stmt]:
    """Map each nested statement uid to its enclosing statement."""
    parents: Dict[int, Stmt] = {}

    def visit(stmt: Stmt) -> None:
        for nested in stmt.bodies():
            for child in nested:
                parents[child.uid] = stmt
                visit(child)

    for stmt in body:
        visit(stmt)
    return parents


__all__ = [
    "map_expr", "substitute", "substitute_in_stmt", "const_int_value",
    "rewrite_body", "find_statements", "parent_map",
]

"""Every module-level import in ``src/repro`` is used.

Neither pyflakes nor flake8 ships with the project, so this is the lint
step for dead imports.  A name counts as used when it appears in code,
in a string annotation (``"Optional[ArrayDecl]"``) or in ``__all__``.
Package ``__init__`` modules are skipped: their imports are re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported(tree: ast.Module):
    """(bound name, line) of each import in the module body, including
    imports nested in module-level ``if``/``try`` blocks."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.If):
            stack.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                stack.extend(handler.body)


def _annotation_names(node: ast.AST):
    """Names inside an annotation, string annotations parsed."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                inner = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(inner)
                        if isinstance(n, ast.Name))


def _used(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            used.update(_annotation_names(ann))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(n.value for n in ast.walk(node.value)
                        if isinstance(n, ast.Constant)
                        and isinstance(n.value, str))
    return used


def unused_imports():
    """``module: name`` for every module-level import nothing uses."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used(tree)
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        out.extend(f"{module}: {name}" for name, _ in _imported(tree)
                   if name not in used)
    return out


def test_no_unused_module_level_imports():
    unused = unused_imports()
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_scan_sees_string_annotations_and_dunder_all():
    tree = ast.parse(
        "from typing import Optional as _Opt\n"
        "from x import A, B, C\n"
        "__all__ = ['B']\n"
        "def f(a: '_Opt[A]') -> None: pass\n")
    used = _used(tree)
    names = {name for name, _ in _imported(tree)}
    assert names - used == {"C"}

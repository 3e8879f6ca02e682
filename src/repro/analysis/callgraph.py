"""Call graph construction and interprocedural reachability.

The paper's stale reference analysis is interprocedural: procedure
bodies must be summarised (or inlined) so that writes performed inside a
callee are visible to the epoch-level dataflow.  Our IR keeps arrays
global, so summaries are simple read/write section pairs per procedure;
epoch construction *inlines* callees that contain parallel loops and
*summarises* purely-serial callees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..ir.program import Program
from ..ir.stmt import CallStmt, Loop, LoopKind


@dataclass
class CallGraph:
    """Direct-call adjacency plus derived properties."""

    program: Program
    callees: Dict[str, List[str]] = field(default_factory=dict)
    callers: Dict[str, List[str]] = field(default_factory=dict)

    @staticmethod
    def build(program: Program) -> "CallGraph":
        graph = CallGraph(program)
        for name, proc in program.procedures.items():
            graph.callees.setdefault(name, [])
            graph.callers.setdefault(name, [])
        for name, proc in program.procedures.items():
            for stmt in proc.walk():
                if isinstance(stmt, CallStmt):
                    if stmt.name not in program.procedures:
                        raise KeyError(f"call to undefined procedure {stmt.name!r}")
                    graph.callees[name].append(stmt.name)
                    graph.callers[stmt.name].append(name)
        return graph

    # -- queries ------------------------------------------------------------
    def reachable_from(self, root: str) -> Set[str]:
        seen: Set[str] = set()
        stack = [root]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.callees.get(name, ()))
        return seen

    def is_recursive(self, name: str) -> bool:
        """True when ``name`` can (transitively) call itself."""
        stack = list(self.callees.get(name, ()))
        seen: Set[str] = set()
        while stack:
            callee = stack.pop()
            if callee == name:
                return True
            if callee in seen:
                continue
            seen.add(callee)
            stack.extend(self.callees.get(callee, ()))
        return False

    def any_recursion(self) -> bool:
        return any(self.is_recursive(name) for name in self.program.procedures)

    def contains_parallelism(self, name: str) -> bool:
        """True when ``name`` or any transitive callee contains a DOALL —
        such calls must be inlined into the epoch structure."""
        for proc_name in self.reachable_from(name):
            proc = self.program.procedures[proc_name]
            for stmt in proc.walk():
                if isinstance(stmt, Loop) and stmt.kind == LoopKind.DOALL:
                    return True
        return False

    def topological_order(self) -> List[str]:
        """Callees-before-callers order (raises on recursion)."""
        if self.any_recursion():
            raise ValueError("call graph is recursive; no topological order")
        order: List[str] = []
        visited: Set[str] = set()

        def visit(name: str) -> None:
            if name in visited:
                return
            visited.add(name)
            for callee in self.callees.get(name, ()):
                visit(callee)
            order.append(name)

        for name in self.program.procedures:
            visit(name)
        return order


__all__ = ["CallGraph"]

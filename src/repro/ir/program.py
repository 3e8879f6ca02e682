"""Programs, procedures and the symbol table.

A :class:`Program` is the compilation unit the CCDP passes and the
runtime consume: a set of array declarations, scalar declarations, one
or more procedures, and a designated entry procedure whose body defines
the program's epoch structure (top-level DOALL loops are parallel
epochs; everything between them is serial).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .arrays import ArrayDecl
from .dtypes import DType, REAL
from .expr import ArrayRef
from .stmt import CallStmt, Stmt


@dataclass
class ScalarDecl:
    """A scalar variable.  Scalars are private per PE (register-resident
    in the cost model) and are replicated/broadcast at epoch boundaries,
    so they never participate in coherence."""

    name: str
    dtype: DType = REAL
    init: Optional[float] = None


@dataclass
class Procedure:
    """A named procedure.  ``params`` are scalar formal parameters;
    arrays are global (COMMON-style), matching the paper's Fortran
    kernels and keeping interprocedural analysis by-name."""

    name: str
    body: List[Stmt] = field(default_factory=list)
    params: Tuple[str, ...] = ()

    def walk(self) -> Iterator[Stmt]:
        for stmt in self.body:
            yield from stmt.walk()

    def array_refs(self) -> Iterator[ArrayRef]:
        for stmt in self.body:
            yield from stmt.array_refs()

    def clone(self) -> "Procedure":
        return Procedure(self.name, [s.clone() for s in self.body], self.params)


class Program:
    """A whole program: declarations + procedures + entry point.

    ``symbols`` binds :class:`SymConst` names to concrete integer values
    for execution (the compiler still treats them as unknown).
    """

    def __init__(self, name: str = "main") -> None:
        self.name = name
        self.arrays: Dict[str, ArrayDecl] = {}
        self.scalars: Dict[str, ScalarDecl] = {}
        self.procedures: Dict[str, Procedure] = {}
        self.entry: str = "main"
        self.symbols: Dict[str, int] = {}

    # -- declaration helpers ----------------------------------------------
    def declare_array(self, decl: ArrayDecl) -> ArrayDecl:
        if decl.name in self.arrays or decl.name in self.scalars:
            raise ValueError(f"duplicate declaration: {decl.name}")
        self.arrays[decl.name] = decl
        return decl

    def declare_scalar(self, decl: ScalarDecl) -> ScalarDecl:
        if decl.name in self.arrays or decl.name in self.scalars:
            raise ValueError(f"duplicate declaration: {decl.name}")
        self.scalars[decl.name] = decl
        return decl

    def add_procedure(self, proc: Procedure) -> Procedure:
        if proc.name in self.procedures:
            raise ValueError(f"duplicate procedure: {proc.name}")
        self.procedures[proc.name] = proc
        return proc

    def bind(self, **symbols: int) -> "Program":
        """Bind symbolic constants to runtime values."""
        self.symbols.update({k: int(v) for k, v in symbols.items()})
        return self

    # -- access -------------------------------------------------------------
    @property
    def entry_proc(self) -> Procedure:
        try:
            return self.procedures[self.entry]
        except KeyError:
            raise KeyError(f"program has no entry procedure {self.entry!r}") from None

    def array(self, name: str) -> ArrayDecl:
        try:
            return self.arrays[name]
        except KeyError:
            raise KeyError(f"undeclared array {name!r}") from None

    def sym_value(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise KeyError(f"unbound symbolic constant {name!r}") from None

    # -- whole-program traversal --------------------------------------------
    def walk(self) -> Iterator[Stmt]:
        for proc in self.procedures.values():
            yield from proc.walk()

    def walk_entry(self) -> Iterator[Stmt]:
        yield from self.entry_proc.walk()

    def callees(self, proc_name: str) -> List[str]:
        out = []
        for stmt in self.procedures[proc_name].walk():
            if isinstance(stmt, CallStmt):
                out.append(stmt.name)
        return out

    def clone(self) -> "Program":
        """Deep copy — CCDP transformation works on a clone so BASE and
        CCDP variants can be derived from one source program."""
        fresh = Program(self.name)
        fresh.arrays = dict(self.arrays)
        fresh.scalars = dict(self.scalars)
        fresh.procedures = {k: v.clone() for k, v in self.procedures.items()}
        fresh.entry = self.entry
        fresh.symbols = dict(self.symbols)
        return fresh

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Program {self.name}: {len(self.arrays)} arrays, "
                f"{len(self.procedures)} procedures, entry={self.entry}>")


def find_ref_owner_stmt(program: Program, uid: int) -> Optional[Stmt]:
    """Locate the statement containing the expression occurrence ``uid``."""
    for stmt in program.walk():
        for expr in stmt.expressions():
            for node in expr.walk():
                if node.uid == uid:
                    return stmt
    return None


__all__ = ["Program", "Procedure", "ScalarDecl", "find_ref_owner_stmt"]

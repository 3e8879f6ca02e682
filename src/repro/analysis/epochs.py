"""Epoch flow graph construction.

The paper's execution model partitions a parallel program into a
sequence of *epochs* — parallel epochs (one DOALL loop, concurrent
tasks) and serial epochs (straight-line/serial-loop code executed as a
single task) — with synchronisation and a memory update at every epoch
boundary.  Stale reference analysis is a dataflow problem over the
*epoch flow graph*: nodes are epochs, edges follow control flow, and
serial loops that contain parallel loops ("region loops", e.g. the time
loops of TOMCATV and SWIM) contribute back edges.

Procedure calls whose callees (transitively) contain DOALL loops are
inlined into the graph; purely-serial callees are summarised as
read/write sections attached to the calling epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.arrays import ArrayDecl
from ..ir.expr import ArrayRef, Expr, VarRef
from ..ir.program import Program
from ..ir.stmt import (Assign, CallStmt, If, InvalidateLines, Loop, LoopKind,
                       PrefetchLine, PrefetchVector, Stmt)
from ..ir.visitor import const_int_value, substitute_in_stmt
from .affine import AffineRef, affine_ref
from .alignment import AccessClass, Alignment, classify
from .callgraph import CallGraph
from .sections import LoopEnv, Section, full_section, section_of_ref


@dataclass
class RefInfo:
    """One shared-array reference occurrence with everything the CCDP
    passes need to know about it."""

    ref: ArrayRef
    stmt: Stmt
    decl: ArrayDecl
    is_write: bool
    aref: Optional[AffineRef]
    section: Section
    alignment: Alignment
    epoch_id: int = -1
    loop_stack: Tuple[Loop, ...] = ()
    summarised_call: Optional[str] = None  #: callee name when from a summary

    @property
    def uid(self) -> int:
        return self.ref.uid

    def describe(self) -> str:
        kind = "write" if self.is_write else "read"
        return f"{kind} {self.ref!r} [{self.alignment.klass}] in epoch {self.epoch_id}"


class EpochKind:
    SERIAL = "serial"
    PARALLEL = "parallel"


@dataclass
class Epoch:
    """One node of the epoch flow graph."""

    id: int
    kind: str
    stmts: List[Stmt]
    doall: Optional[Loop]
    env: LoopEnv
    reads: List[RefInfo] = field(default_factory=list)
    writes: List[RefInfo] = field(default_factory=list)
    label: str = ""

    @property
    def is_parallel(self) -> bool:
        return self.kind == EpochKind.PARALLEL

    def describe(self) -> str:
        if self.is_parallel:
            assert self.doall is not None
            tag = f"doall {self.doall.var}"
            if self.doall.label:
                tag += f" [{self.doall.label}]"
        else:
            tag = f"serial ({len(self.stmts)} stmts)"
        return f"epoch {self.id}: {tag}"


class EpochGraph:
    """Epochs + control-flow edges (including region-loop back edges)."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.epochs: List[Epoch] = []
        self.succs: Dict[int, List[int]] = {}
        self.preds: Dict[int, List[int]] = {}
        self.entry_ids: List[int] = []
        self.exit_ids: List[int] = []
        self.back_edges: List[Tuple[int, int]] = []

    def add_epoch(self, epoch: Epoch) -> Epoch:
        self.epochs.append(epoch)
        self.succs[epoch.id] = []
        self.preds[epoch.id] = []
        return epoch

    def add_edge(self, src: int, dst: int, back: bool = False) -> None:
        if dst not in self.succs[src]:
            self.succs[src].append(dst)
            self.preds[dst].append(src)
        if back:
            self.back_edges.append((src, dst))

    def epoch(self, epoch_id: int) -> Epoch:
        return self.epochs[epoch_id]

    def parallel_epochs(self) -> List[Epoch]:
        return [e for e in self.epochs if e.is_parallel]

    def describe(self) -> str:
        lines = [e.describe() + f" -> {self.succs[e.id]}" for e in self.epochs]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

def build_epoch_graph(program: Program) -> EpochGraph:
    """Build the epoch flow graph of ``program``'s entry procedure."""
    graph = EpochGraph(program)
    callgraph = CallGraph.build(program)
    builder = _GraphBuilder(graph, callgraph)
    entry_ids, exit_ids = builder.build_region(program.entry_proc.body, {}, [])
    graph.entry_ids = entry_ids
    graph.exit_ids = exit_ids
    for epoch in graph.epochs:
        _collect_refs(program, epoch)
    return graph


class _GraphBuilder:
    def __init__(self, graph: EpochGraph, callgraph: CallGraph) -> None:
        self.graph = graph
        self.callgraph = callgraph
        self._next_id = 0

    def _new_epoch(self, kind: str, stmts: List[Stmt], doall: Optional[Loop],
                   env: LoopEnv) -> Epoch:
        epoch = Epoch(self._next_id, kind, stmts, doall, dict(env))
        self._next_id += 1
        return self.graph.add_epoch(epoch)

    def build_region(self, body: Sequence[Stmt], env: LoopEnv,
                     inline_stack: List[str]) -> Tuple[List[int], List[int]]:
        """Build the epochs of a statement region; returns (entry ids,
        exit ids).  ``env`` carries enclosing region-loop variable
        ranges."""
        entry_ids: List[int] = []
        frontier: List[int] = []  # current exits awaiting the next epoch
        serial_buffer: List[Stmt] = []

        def flush_serial() -> None:
            nonlocal frontier, entry_ids
            if not serial_buffer:
                return
            epoch = self._new_epoch(EpochKind.SERIAL, list(serial_buffer), None, env)
            serial_buffer.clear()
            self._link(frontier, [epoch.id], entry_ids)
            frontier = [epoch.id]

        def attach(sub_entries: List[int], sub_exits: List[int]) -> None:
            nonlocal frontier, entry_ids
            self._link(frontier, sub_entries, entry_ids)
            frontier = sub_exits

        for stmt in body:
            if isinstance(stmt, Loop) and stmt.kind == LoopKind.DOALL:
                flush_serial()
                epoch = self._new_epoch(EpochKind.PARALLEL, [stmt], stmt, env)
                attach([epoch.id], [epoch.id])
            elif isinstance(stmt, Loop) and self._has_parallelism(stmt):
                flush_serial()
                inner_env = dict(env)
                inner_env[stmt.var] = _range_of(stmt)
                sub_entries, sub_exits = self.build_region(stmt.body, inner_env, inline_stack)
                if sub_entries:
                    # region loop: back edge from its exits to its entries
                    for src in sub_exits:
                        for dst in sub_entries:
                            self.graph.add_edge(src, dst, back=True)
                attach(sub_entries, sub_exits)
            elif isinstance(stmt, If) and self._has_parallelism(stmt):
                flush_serial()
                then_e, then_x = self.build_region(stmt.then_body, env, inline_stack)
                else_e, else_x = self.build_region(stmt.else_body, env, inline_stack)
                entries = then_e + else_e
                exits = then_x + else_x
                if not stmt.else_body:
                    exits = exits + frontier  # branch may be skipped
                if not entries:
                    continue
                attach(entries, exits)
            elif isinstance(stmt, CallStmt) and self.callgraph.contains_parallelism(stmt.name):
                if stmt.name in inline_stack:
                    raise ValueError(
                        f"recursive call to {stmt.name!r} containing parallelism "
                        "cannot be analysed")
                flush_serial()
                callee = self.graph.program.procedures[stmt.name]
                inlined = _inline_body(callee, stmt)
                sub_entries, sub_exits = self.build_region(
                    inlined, env, inline_stack + [stmt.name])
                attach(sub_entries, sub_exits)
            else:
                serial_buffer.append(stmt)
        flush_serial()
        if not entry_ids and frontier:
            entry_ids = list(frontier)
        return entry_ids, frontier

    def _has_parallelism(self, stmt: Stmt) -> bool:
        """DOALL inside ``stmt``, lexically or behind procedure calls."""
        for node in stmt.walk():
            if isinstance(node, Loop) and node.kind == LoopKind.DOALL:
                return True
            if isinstance(node, CallStmt) and self.callgraph.contains_parallelism(node.name):
                return True
        return False

    def _link(self, frontier: List[int], targets: List[int], entry_ids: List[int]) -> None:
        if not targets:
            return
        if not frontier and not entry_ids:
            entry_ids.extend(targets)
            return
        for src in frontier:
            for dst in targets:
                self.graph.add_edge(src, dst)
        if not entry_ids:
            entry_ids.extend(targets)


def _range_of(loop: Loop) -> Optional[Tuple[int, int]]:
    lo = const_int_value(loop.lower)
    hi = const_int_value(loop.upper)
    if lo is None or hi is None:
        return None
    return (min(lo, hi), max(lo, hi))


def _inline_body(callee, call: CallStmt) -> List[Stmt]:
    """Clone the callee body with formal parameters substituted by the
    actual argument expressions."""
    bindings = {formal: actual for formal, actual in zip(callee.params, call.args)}
    return [substitute_in_stmt(stmt, bindings) for stmt in callee.body]


# ---------------------------------------------------------------------------
# Per-epoch reference collection
# ---------------------------------------------------------------------------

def _collect_refs(program: Program, epoch: Epoch) -> None:
    collector = _RefCollector(program, epoch)
    for stmt in epoch.stmts:
        collector.visit(stmt, (), dict(epoch.env))
    epoch.reads = collector.reads
    epoch.writes = collector.writes


class _RefCollector:
    def __init__(self, program: Program, epoch: Epoch) -> None:
        self.program = program
        self.epoch = epoch
        self.reads: List[RefInfo] = []
        self.writes: List[RefInfo] = []
        self._summary_cache: Dict[str, Tuple[List[Tuple[str, Section]], List[Tuple[str, Section]]]] = {}

    # -- statement dispatch ------------------------------------------------
    def visit(self, stmt: Stmt, loop_stack: Tuple[Loop, ...], env: LoopEnv) -> None:
        if isinstance(stmt, Loop):
            inner_env = dict(env)
            inner_env[stmt.var] = _range_of(stmt)
            for expr in stmt.expressions():
                self._collect_expr(expr, stmt, loop_stack, env, is_write=False)
            for child in stmt.body:
                self.visit(child, loop_stack + (stmt,), inner_env)
        elif isinstance(stmt, If):
            self._collect_expr(stmt.cond, stmt, loop_stack, env, is_write=False)
            for child in stmt.then_body:
                self.visit(child, loop_stack, env)
            for child in stmt.else_body:
                self.visit(child, loop_stack, env)
        elif isinstance(stmt, Assign):
            # RHS reads, LHS subscript reads, LHS write.
            self._collect_expr(stmt.rhs, stmt, loop_stack, env, is_write=False)
            if isinstance(stmt.lhs, ArrayRef):
                for sub in stmt.lhs.subscripts:
                    self._collect_expr(sub, stmt, loop_stack, env, is_write=False)
                self._add_ref(stmt.lhs, stmt, loop_stack, env, is_write=True)
        elif isinstance(stmt, CallStmt):
            for expr in stmt.expressions():
                self._collect_expr(expr, stmt, loop_stack, env, is_write=False)
            self._add_call_summary(stmt, loop_stack)
        elif isinstance(stmt, (PrefetchLine, PrefetchVector, InvalidateLines)):
            # Cache-management statements move data, not values; they are
            # invisible to the dataflow.
            return
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected statement {type(stmt).__name__}")

    # -- expression/ref handling ----------------------------------------------
    def _collect_expr(self, expr: Expr, stmt: Stmt, loop_stack: Tuple[Loop, ...],
                      env: LoopEnv, is_write: bool) -> None:
        for node in expr.walk():
            if isinstance(node, ArrayRef):
                self._add_ref(node, stmt, loop_stack, env, is_write=is_write)

    def _add_ref(self, ref: ArrayRef, stmt: Stmt, loop_stack: Tuple[Loop, ...],
                 env: LoopEnv, is_write: bool) -> None:
        decl = self.program.array(ref.array)
        aref = affine_ref(ref, decl)
        section = (section_of_ref(aref, decl, env) if aref is not None
                   else full_section(decl))
        doall = self.epoch.doall
        align_decl = (self.program.arrays.get(doall.align)
                      if doall is not None and doall.align else None)
        alignment = classify(aref, decl, doall, align_decl)
        info = RefInfo(ref=ref, stmt=stmt, decl=decl, is_write=is_write,
                       aref=aref, section=section, alignment=alignment,
                       epoch_id=self.epoch.id, loop_stack=loop_stack)
        (self.writes if is_write else self.reads).append(info)

    def _add_call_summary(self, call: CallStmt, loop_stack: Tuple[Loop, ...]) -> None:
        reads, writes = self._summarise(call.name)
        klass = AccessClass.SERIAL if self.epoch.doall is None else AccessClass.OTHER
        for array, section in reads:
            decl = self.program.array(array)
            info = RefInfo(ref=ArrayRef(array, [VarRef(f"__sum{d}") for d in range(decl.rank)]),
                           stmt=call, decl=decl, is_write=False, aref=None,
                           section=section, alignment=Alignment(klass),
                           epoch_id=self.epoch.id, loop_stack=loop_stack,
                           summarised_call=call.name)
            self.reads.append(info)
        for array, section in writes:
            decl = self.program.array(array)
            info = RefInfo(ref=ArrayRef(array, [VarRef(f"__sum{d}") for d in range(decl.rank)]),
                           stmt=call, decl=decl, is_write=True, aref=None,
                           section=section, alignment=Alignment(klass),
                           epoch_id=self.epoch.id, loop_stack=loop_stack,
                           summarised_call=call.name)
            self.writes.append(info)

    def _summarise(self, proc_name: str):
        """Whole-array read/write summary of a serial callee (widened to
        full sections: callee loop bounds are not tracked across the
        call boundary)."""
        if proc_name in self._summary_cache:
            return self._summary_cache[proc_name]
        proc = self.program.procedures[proc_name]
        read_arrays: Dict[str, Section] = {}
        write_arrays: Dict[str, Section] = {}
        seen = {proc_name}
        stack = [proc]
        while stack:
            current = stack.pop()
            for stmt in current.walk():
                if isinstance(stmt, CallStmt) and stmt.name not in seen:
                    seen.add(stmt.name)
                    stack.append(self.program.procedures[stmt.name])
                elif isinstance(stmt, Assign):
                    for node in stmt.rhs.walk():
                        if isinstance(node, ArrayRef):
                            decl = self.program.array(node.array)
                            read_arrays[node.array] = full_section(decl)
                    if isinstance(stmt.lhs, ArrayRef):
                        decl = self.program.array(stmt.lhs.array)
                        write_arrays[stmt.lhs.array] = full_section(decl)
                        for sub in stmt.lhs.subscripts:
                            for node in sub.walk():
                                if isinstance(node, ArrayRef):
                                    sub_decl = self.program.array(node.array)
                                    read_arrays[node.array] = full_section(sub_decl)
        result = (list(read_arrays.items()), list(write_arrays.items()))
        self._summary_cache[proc_name] = result
        return result


__all__ = ["Epoch", "EpochGraph", "EpochKind", "RefInfo", "build_epoch_graph"]

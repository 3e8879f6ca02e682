"""The reference interpreter: executes IR programs on the machine model.

Every memory reference is serviced individually through
:class:`~repro.machine.machine.Machine`, so timing, cache behaviour,
prefetch-queue dynamics and coherence are *exact* with respect to the
machine semantics.  To keep the hot path fast, expressions and
statements are compiled once into Python closures (``fn(env, pe) ->
value``); per-reference policy flags (cacheable / bypass / CRAFT
overhead) are resolved at compile time.

The interpreter realises the paper's epoch execution model:

* top-level DOALL loops are parallel epochs — iterations partitioned
  over PEs by the loop's schedule, ended by a barrier;
* serial code (including serial loops without inner DOALLs) runs as a
  single task on PE 0;
* serial loops *containing* DOALLs ("region loops", e.g. time-step
  loops) execute their bodies as epoch sequences per iteration;
* main memory is always current (write-through), so the epoch-boundary
  memory update is implicit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..analysis.affine import affine_ref
from ..analysis.costmodel import expr_cost
from ..ir.expr import (ArrayRef, BinOp, Expr, FloatConst, IntConst,
                       IntrinsicCall, RefMode, SymConst, UnaryOp, VarRef)
from ..ir.program import Program
from ..ir.stmt import (Assign, CallStmt, If, InvalidateLines, Loop, LoopKind,
                       PrefetchLine, PrefetchVector, ScheduleKind, Stmt)
from ..machine.machine import Machine
from ..machine.params import MachineParams
from .exec_config import ExecutionConfig, Version
from .schedulers import (block_partition, cyclic_partition, dynamic_chunks,
                         owner_partition)

EvalFn = Callable[[dict, int], float]
StmtFn = Callable[[dict, int], None]


@dataclass
class EpochRecord:
    """One executed epoch, for traces and reports."""

    label: str
    kind: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class RunResult:
    """Outcome of one program execution."""

    elapsed: float
    machine: Machine
    config: ExecutionConfig
    epochs: List[EpochRecord] = field(default_factory=list)
    batch_chunks: int = 0      #: chunks the batched backend bulk-executed
    batch_fallbacks: int = 0   #: chunks that bound but fell back at run time
    fault_fallbacks: int = 0   #: chunks routed to the reference path by faults
    batch_refs: int = 0        #: memory references served by batched chunks
    #: always 0 (no backend replays epochs across PEs); kept because
    #: benchmark cold-state guards still read them
    plane_chunks: int = 0
    plane_refs: int = 0
    #: per-reason fallback/skip counts (reason code -> occurrences); empty
    #: under the reference backend or when no chunk ever fell back
    fallback_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def batched_coverage(self) -> float:
        """Fraction of all memory references serviced through batched
        plans (0.0 under the reference backend)."""
        total = self.machine.stats.total()
        denom = total.reads + total.writes
        return self.batch_refs / denom if denom else 0.0

    @property
    def stats(self):
        return self.machine.stats

    @property
    def fault_stats(self):
        """FaultStats of the run, or None when no plan was active."""
        return None if self.machine.faults is None else self.machine.faults.stats

    @property
    def oracle(self):
        return self.machine.oracle

    def value_of(self, array: str):
        return self.machine.memory.array_view(array)

    def summary(self) -> str:
        text = (f"[{self.config.version}] {self.elapsed:.0f} cycles, "
                f"{self.machine.stats.summary()}")
        if self.machine.faults is not None:
            text += f"\n  faults: {self.machine.faults.stats.summary()}"
        if self.machine.oracle is not None:
            text += f"\n  {self.machine.oracle.summary()}"
        return text


class InterpreterError(RuntimeError):
    pass


class _RegCache:
    """Iteration-scoped register promotion (compile-time scaffold).

    Real compilers keep a value loaded once per loop iteration in a
    register; without modelling that, every *textual* occurrence of
    ``p(i, j)`` would be charged as a separate load, inflating the cached
    versions' hit counts and the uncached versions' latency alike.  Each
    innermost loop body (serial inner loop or DOALL body) gets one of
    these: reads of affine references are memoised per iteration under
    their structural key, and writes evict exactly the keys they may
    alias (same array, unless the affine address forms provably differ
    by a non-zero constant)."""

    __slots__ = ("values", "reads", "drops")

    def __init__(self) -> None:
        self.values: dict = {}           # key -> runtime value (per iteration)
        self.reads: Dict[tuple, object] = {}   # key -> AffineRef or None
        self.drops: Dict[int, List[tuple]] = {}  # write stmt uid -> keys

    def register_read(self, key: tuple, aref) -> None:
        self.reads.setdefault(key, aref)

    def drop_keys_for_write(self, write_ref: ArrayRef, write_aref) -> List[tuple]:
        """Keys a write to ``write_ref`` may alias (computed once, at
        compile time, after the whole region was scanned)."""
        out = []
        for key, aref in self.reads.items():
            if key[1] != write_ref.array:  # key = ("aref", array, subs)
                continue
            if (write_aref is not None and aref is not None
                    and write_aref.address.same_shape(aref.address)
                    and write_aref.address.const != aref.address.const):
                continue  # provably distinct elements: keep the register
            out.append(key)
        return out


class Interpreter:
    """Compile-and-run engine for one (program, machine, config) triple."""

    def __init__(self, program: Program, params: MachineParams,
                 config: Optional[ExecutionConfig] = None,
                 trace_epochs: bool = False, trace_reads: bool = False) -> None:
        self.program = program
        self.params = params
        self.config = config or ExecutionConfig()
        self.machine = Machine(program.arrays.values(), params,
                               on_stale=self.config.on_stale,
                               trace=trace_reads,
                               fault_plan=self.config.fault_plan,
                               oracle=self.config.oracle,
                               tracer=self.config.tracer,
                               protocol=self.config.protocol)
        self.trace_epochs = trace_epochs
        self.epochs: List[EpochRecord] = []
        self._expr_cache: Dict[int, EvalFn] = {}
        self._stmt_cache: Dict[int, StmtFn] = {}
        self._synced = True
        self._multi = params.n_pes > 1
        # Register-promotion scaffolding (see _RegCache).
        self._reg_stack: List[_RegCache] = []
        self._loop_ctx: Dict[int, _RegCache] = {}
        self._loopvar_stack: List[str] = []
        self._region_vars: List[str] = []

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        env: Dict[str, float] = {}
        for name, decl in self.program.scalars.items():
            env[name] = decl.init if decl.init is not None else 0.0
        self._exec_region(self.program.entry_proc.body, env)
        if self._multi and not self._synced:
            self.machine.barrier()
        if self.machine.oracle is not None:
            self.machine.oracle.verify_final(self.machine.memory)
        return RunResult(elapsed=self.machine.elapsed(), machine=self.machine,
                         config=self.config, epochs=self.epochs,
                         batch_chunks=getattr(self, "batch_chunks", 0),
                         batch_fallbacks=getattr(self, "batch_fallbacks", 0),
                         fault_fallbacks=getattr(self, "fault_fallbacks", 0),
                         batch_refs=getattr(self, "batch_refs", 0),
                         fallback_reasons=dict(
                             getattr(self, "fallback_reasons", {})))

    # ------------------------------------------------------------------
    # epoch-level control
    # ------------------------------------------------------------------
    def _exec_region(self, body: List[Stmt], env: dict) -> None:
        for stmt in body:
            if isinstance(stmt, Loop) and stmt.kind == LoopKind.DOALL:
                self._exec_doall(stmt, env)
            elif isinstance(stmt, Loop) and self._has_parallelism(stmt):
                lo = int(self._compile_expr(stmt.lower)(env, 0))
                hi = int(self._compile_expr(stmt.upper)(env, 0))
                step = int(self._compile_expr(stmt.step)(env, 0))
                self._region_vars.append(stmt.var)
                for value in range(lo, hi + (1 if step > 0 else -1), step):
                    env[stmt.var] = value
                    self._exec_region(stmt.body, env)
                self._region_vars.pop()
            elif isinstance(stmt, If) and self._has_parallelism(stmt):
                cond = self._compile_expr(stmt.cond)(env, 0)
                self._synced = False
                self._exec_region(stmt.then_body if cond else stmt.else_body, env)
            elif isinstance(stmt, CallStmt) and _callee_contains_doall(self.program, stmt):
                callee = self.program.procedures[stmt.name]
                saved = {}
                for name, arg in zip(callee.params, stmt.args):
                    if name in env:
                        saved[name] = env[name]
                    env[name] = self._compile_expr(arg)(env, 0)
                self._exec_region(callee.body, env)
                for name in callee.params:
                    if name in saved:
                        env[name] = saved[name]
                    else:
                        env.pop(name, None)
            else:
                # Serial epoch work: one task on PE 0.
                self._compile_stmt(stmt)(env, 0)
                self._synced = False

    def _exec_doall(self, loop: Loop, env: dict) -> None:
        machine = self.machine
        params = self.params
        # elapsed() is an O(n_pes) max; only the epoch record needs it.
        start_time = machine.elapsed() if self.trace_epochs else 0.0
        if self._multi and not self._synced:
            machine.barrier()
        if self._multi:
            extra = params.epoch_start
            if self.config.craft_overheads:
                extra += params.craft_epoch_overhead
            for pe in machine.pes:
                pe.advance(extra)
        tracer = machine.tracer
        epoch_label = loop.label or f"doall {loop.var}"
        if tracer is not None:
            tracer.epoch_begin(epoch_label, machine)

        lo = int(self._compile_expr(loop.lower)(env, 0))
        hi = int(self._compile_expr(loop.upper)(env, 0))
        step = int(self._compile_expr(loop.step)(env, 0))
        ctx = self._enter_loop_ctx(loop)
        body_fns = [self._compile_stmt(s) for s in loop.body]
        preamble_fns = [self._compile_stmt(s) for s in loop.preamble]
        self._exit_loop_ctx()
        var = loop.var
        overhead = params.loop_overhead
        n_pes = params.n_pes
        registers = ctx.values

        def run_iteration(env_p: dict, pe: int, value: int) -> None:
            env_p[var] = value
            registers.clear()
            machine.pes[pe].advance(overhead)
            for fn in body_fns:
                fn(env_p, pe)

        def run_preamble(env_p: dict, pe: int, c_lo: int, c_hi: int, c_cnt: int) -> None:
            if not preamble_fns:
                return
            lo_name, hi_name, cnt_name = loop.chunk_vars()
            env_p[lo_name] = c_lo
            env_p[hi_name] = c_hi
            env_p[cnt_name] = c_cnt
            for fn in preamble_fns:
                fn(env_p, pe)

        self._run_doall_body(loop, env, lo, hi, step,
                             run_iteration, run_preamble)

        registers.clear()
        if self._multi:
            machine.barrier()
        self._synced = True
        machine.stats.epochs += 1
        if tracer is not None:
            tracer.epoch_end(epoch_label, machine)
        if self.trace_epochs:
            self.epochs.append(EpochRecord(
                label=epoch_label, kind="parallel",
                start=start_time, end=machine.elapsed()))

    def _run_doall_body(self, loop: Loop, env: dict, lo: int, hi: int,
                        step: int, run_iteration, run_preamble) -> None:
        """Partition one DOALL epoch over the PEs and execute every PE's
        chunk through :meth:`_iterate_doall` (the batched backend's
        per-PE bulk hook)."""
        machine = self.machine
        params = self.params
        n_pes = params.n_pes
        if loop.align and loop.schedule == ScheduleKind.STATIC_BLOCK and n_pes > 1:
            decl = self.program.array(loop.align)
            assignments = owner_partition(
                lo, hi, step, n_pes,
                lambda v: decl.owner_of_axis_index(v, n_pes))
            for pe, values in enumerate(assignments):
                env_p = dict(env)
                if values:
                    run_preamble(env_p, pe, min(values), max(values), len(values))
                self._iterate_doall(loop, env_p, pe, values, run_iteration)
        elif loop.schedule == ScheduleKind.STATIC_BLOCK or n_pes == 1:
            chunks = block_partition(lo, hi, step, n_pes)
            for pe, chunk in enumerate(chunks):
                env_p = dict(env)
                run_preamble(env_p, pe, chunk.lo, chunk.hi, chunk.count)
                self._iterate_doall(loop, env_p, pe, list(chunk.iterations()),
                                    run_iteration)
        elif loop.schedule == ScheduleKind.STATIC_CYCLIC:
            assignments = cyclic_partition(lo, hi, step, n_pes)
            for pe, values in enumerate(assignments):
                env_p = dict(env)
                if values:
                    run_preamble(env_p, pe, values[0], values[-1], len(values))
                self._iterate_doall(loop, env_p, pe, values, run_iteration)
        else:  # DYNAMIC: greedy earliest-clock self scheduling
            chunks = dynamic_chunks(lo, hi, step, params.dynamic_chunk)
            envs = []
            for pe in range(n_pes):
                env_p = dict(env)
                run_preamble(env_p, pe, lo, hi, max(0, len(range(lo, hi + 1, step))))
                envs.append(env_p)
            # Ready queue keyed on (clock, pe): pops the idlest PE, lowest
            # index first on ties — the same PE the old O(P) min() scan
            # picked, in O(log P).  Entries go stale when a PE's clock moves
            # (it executed a chunk); stale pops are refreshed and reinserted.
            ready = [(machine.pes[p].clock, p) for p in range(n_pes)]
            heapq.heapify(ready)
            for chunk in chunks:
                while True:
                    clock, pe = heapq.heappop(ready)
                    if clock == machine.pes[pe].clock:
                        break
                    heapq.heappush(ready, (machine.pes[pe].clock, pe))
                machine.pes[pe].advance(params.dynamic_sched_overhead)
                self._iterate_doall(loop, envs[pe], pe,
                                    list(chunk.iterations()), run_iteration)
                heapq.heappush(ready, (machine.pes[pe].clock, pe))

    def _iterate_doall(self, loop: Loop, env_p: dict, pe: int,
                       values: Sequence[int], run_iteration) -> None:
        """Execute one PE's iteration chunk of a DOALL.  The batched
        backend overrides this to service whole chunks as bulk traces."""
        for value in values:
            run_iteration(env_p, pe, value)

    # ------------------------------------------------------------------
    # register-promotion contexts
    # ------------------------------------------------------------------
    def _enter_loop_ctx(self, loop: Loop) -> _RegCache:
        ctx = self._loop_ctx.get(loop.uid)
        if ctx is None:
            ctx = _RegCache()
            self._scan_direct_reads(loop.body, ctx)
            self._loop_ctx[loop.uid] = ctx
        self._reg_stack.append(ctx)
        self._loopvar_stack.append(loop.var)
        return ctx

    def _exit_loop_ctx(self) -> None:
        self._reg_stack.pop()
        self._loopvar_stack.pop()

    def _scan_direct_reads(self, stmts: Sequence[Stmt], ctx: _RegCache) -> None:
        """Register the loop-body-level reads eligible for register
        promotion (nested loops own their reads; callee bodies are
        opaque)."""
        for stmt in stmts:
            if isinstance(stmt, Loop):
                continue
            if isinstance(stmt, If):
                self._register_reads(stmt.cond, ctx)
                self._scan_direct_reads(stmt.then_body, ctx)
                self._scan_direct_reads(stmt.else_body, ctx)
            elif isinstance(stmt, Assign):
                self._register_reads(stmt.rhs, ctx)
                if isinstance(stmt.lhs, ArrayRef):
                    for sub in stmt.lhs.subscripts:
                        self._register_reads(sub, ctx)
            elif isinstance(stmt, CallStmt):
                for arg in stmt.args:
                    self._register_reads(arg, ctx)

    def _register_reads(self, expr: Expr, ctx: _RegCache) -> None:
        for node in expr.walk():
            if isinstance(node, ArrayRef):
                decl = self.program.array(node.array)
                ctx.register_read(node.key(), affine_ref(node, decl))

    def _promotable(self, ref: ArrayRef) -> bool:
        """A read may live in a register for the iteration only when its
        address cannot change mid-iteration: every subscript variable is
        a loop induction variable of some enclosing loop."""
        loop_vars = set(self._loopvar_stack) | set(self._region_vars)
        for sub in ref.subscripts:
            if not sub.free_vars() <= loop_vars:
                return False
        return True

    def _has_parallelism(self, stmt: Stmt) -> bool:
        """Does ``stmt`` contain a DOALL, lexically or behind calls?"""
        for node in stmt.walk():
            if isinstance(node, Loop) and node.kind == LoopKind.DOALL:
                return True
            if isinstance(node, CallStmt) and _callee_contains_doall(self.program, node):
                return True
        return False

    # ------------------------------------------------------------------
    # statement compilation
    # ------------------------------------------------------------------
    def _compile_stmt(self, stmt: Stmt) -> StmtFn:
        cached = self._stmt_cache.get(stmt.uid)
        if cached is not None:
            return cached
        fn = self._build_stmt(stmt)
        self._stmt_cache[stmt.uid] = fn
        return fn

    def _build_stmt(self, stmt: Stmt) -> StmtFn:
        machine = self.machine
        params = self.params

        if isinstance(stmt, Assign):
            rhs_fn = self._compile_expr(stmt.rhs)
            arith = self._arith_cost(stmt.rhs)
            if isinstance(stmt.lhs, VarRef):
                name = stmt.lhs.name

                def assign_scalar(env: dict, pe: int) -> None:
                    value = rhs_fn(env, pe)
                    if arith:
                        machine.pes[pe].advance(arith)
                    env[name] = value

                return assign_scalar

            lhs = stmt.lhs
            decl = self.program.array(lhs.array)
            flat_fn = self._compile_flat_index(lhs)
            cacheable, craft, _ = self.config.spec.policy(decl)
            array = lhs.array

            # Register eviction: spill every promoted value this store may
            # alias, in every active loop context (computed at compile time
            # from the affine address forms).
            write_aref = affine_ref(lhs, decl)
            evictions = []
            for ctx in self._reg_stack:
                keys = ctx.drop_keys_for_write(lhs, write_aref)
                if keys:
                    evictions.append((ctx.values, keys))

            if evictions:
                def assign_array(env: dict, pe: int) -> None:
                    value = rhs_fn(env, pe)
                    if arith:
                        machine.pes[pe].advance(arith)
                    machine.write(pe, array, flat_fn(env, pe), value,
                                  cacheable=cacheable, craft=craft)
                    for registers, keys in evictions:
                        for key in keys:
                            registers.pop(key, None)
            else:
                def assign_array(env: dict, pe: int) -> None:
                    value = rhs_fn(env, pe)
                    if arith:
                        machine.pes[pe].advance(arith)
                    machine.write(pe, array, flat_fn(env, pe), value,
                                  cacheable=cacheable, craft=craft)

            return assign_array

        if isinstance(stmt, Loop):
            if stmt.kind == LoopKind.DOALL:
                raise InterpreterError(
                    "nested DOALL loops are not part of the epoch model")
            lo_fn = self._compile_expr(stmt.lower)
            hi_fn = self._compile_expr(stmt.upper)
            step_fn = self._compile_expr(stmt.step)
            ctx = self._enter_loop_ctx(stmt)
            body_fns = [self._compile_stmt(s) for s in stmt.body]
            self._exit_loop_ctx()
            var = stmt.var
            overhead = params.loop_overhead
            registers = ctx.values

            def run_loop(env: dict, pe: int) -> None:
                lo = int(lo_fn(env, pe))
                hi = int(hi_fn(env, pe))
                step = int(step_fn(env, pe))
                pe_obj = machine.pes[pe]
                for value in range(lo, hi + (1 if step > 0 else -1), step):
                    env[var] = value
                    registers.clear()
                    pe_obj.advance(overhead)
                    for fn in body_fns:
                        fn(env, pe)
                registers.clear()

            return run_loop

        if isinstance(stmt, If):
            cond_fn = self._compile_expr(stmt.cond)
            then_fns = [self._compile_stmt(s) for s in stmt.then_body]
            else_fns = [self._compile_stmt(s) for s in stmt.else_body]
            branch_cost = params.int_op

            def run_if(env: dict, pe: int) -> None:
                machine.pes[pe].advance(branch_cost)
                for fn in (then_fns if cond_fn(env, pe) else else_fns):
                    fn(env, pe)

            return run_if

        if isinstance(stmt, CallStmt):
            callee = self.program.procedures[stmt.name]
            arg_fns = [self._compile_expr(a) for a in stmt.args]
            # A call is a full register spill: the callee may write any
            # global array.  Its body compiles under a fresh context stack
            # so its closures never bind to this call site's registers.
            spill = [ctx.values for ctx in self._reg_stack]
            saved_stacks = (self._reg_stack, self._loopvar_stack)
            self._reg_stack, self._loopvar_stack = [], []
            body_fns = [self._compile_stmt(s) for s in callee.body]
            self._reg_stack, self._loopvar_stack = saved_stacks
            names = callee.params

            def run_call(env: dict, pe: int) -> None:
                for registers in spill:
                    registers.clear()
                saved = {}
                for name, arg_fn in zip(names, arg_fns):
                    if name in env:
                        saved[name] = env[name]
                    env[name] = arg_fn(env, pe)
                for fn in body_fns:
                    fn(env, pe)
                for registers in spill:
                    registers.clear()
                for name in names:
                    if name in saved:
                        env[name] = saved[name]
                    else:
                        env.pop(name, None)

            return run_call

        if isinstance(stmt, PrefetchLine):
            return self._build_prefetch_line(stmt)
        if isinstance(stmt, PrefetchVector):
            return self._build_prefetch_vector(stmt)
        if isinstance(stmt, InvalidateLines):
            return self._build_invalidate(stmt)
        raise InterpreterError(f"cannot execute {type(stmt).__name__}")

    def _build_prefetch_line(self, stmt: PrefetchLine) -> StmtFn:
        machine = self.machine
        params = self.params
        ref = stmt.ref
        decl = self.program.array(ref.array)
        sub_fns = [self._compile_expr(s) for s in ref.subscripts]
        shape = decl.shape
        strides = decl.strides()
        invalidate = stmt.invalidate_first
        array = ref.array
        if not self.config.spec.policy(decl)[2]:
            # BASE-style and protocol runs never execute CCDP programs,
            # but guard anyway: prefetching into a disabled cache — or
            # around a hardware protocol that owns the line states — is
            # a no-op costing issue time.
            def noop(env: dict, pe: int) -> None:
                machine.pes[pe].advance(params.prefetch_issue)

            return noop

        def run_prefetch(env: dict, pe: int) -> None:
            flat = 0
            for fn, extent, stride in zip(sub_fns, shape, strides):
                idx = int(fn(env, pe)) - 1
                if idx < 0 or idx >= extent:
                    # Beyond-edge look-ahead: hardware would fetch a harmless
                    # out-of-range address; charge the issue cost and drop.
                    machine.pes[pe].advance(params.prefetch_issue)
                    return
                flat += idx * stride
            machine.prefetch_line(pe, array, flat, invalidate=invalidate)

        return run_prefetch

    def _build_prefetch_vector(self, stmt: PrefetchVector) -> StmtFn:
        machine = self.machine
        params = self.params
        decl = self.program.array(stmt.array)
        sub_fns = [self._compile_expr(s) for s in stmt.start_subscripts]
        len_fn = self._compile_expr(stmt.length)
        stride_fn = self._compile_expr(stmt.stride)
        shape = decl.shape
        strides = decl.strides()
        axis = stmt.axis
        size = decl.size
        array = stmt.array
        invalidate = stmt.invalidate_first
        if not self.config.spec.policy(decl)[2]:
            def noop(env: dict, pe: int) -> None:
                machine.pes[pe].advance(params.vector_startup)

            return noop

        def run_vector(env: dict, pe: int) -> None:
            flat = 0
            for fn, extent, stride in zip(sub_fns, shape, strides):
                idx = int(fn(env, pe)) - 1
                idx = min(max(idx, 0), extent - 1)
                flat += idx * stride
            length = int(len_fn(env, pe))
            if length <= 0:
                return
            elem_stride = int(stride_fn(env, pe)) * strides[axis]
            if elem_stride > 0:
                max_len = (size - 1 - flat) // elem_stride + 1
                length = min(length, max_len)
            machine.prefetch_vector(pe, array, flat, length, elem_stride,
                                    invalidate=invalidate)

        return run_vector

    def _build_invalidate(self, stmt: InvalidateLines) -> StmtFn:
        machine = self.machine
        decl = self.program.array(stmt.array)
        sub_fns = [self._compile_expr(s) for s in stmt.start_subscripts]
        len_fn = self._compile_expr(stmt.length)
        shape = decl.shape
        strides = decl.strides()
        axis = stmt.axis
        size = decl.size
        array = stmt.array

        def run_invalidate(env: dict, pe: int) -> None:
            flat = 0
            for fn, extent, stride in zip(sub_fns, shape, strides):
                idx = int(fn(env, pe)) - 1
                idx = min(max(idx, 0), extent - 1)
                flat += idx * stride
            length = int(len_fn(env, pe))
            if length <= 0:
                return
            count = length * strides[axis]
            machine.invalidate(pe, array, flat, min(flat + count - 1, size - 1))

        return run_invalidate

    # ------------------------------------------------------------------
    # expression compilation
    # ------------------------------------------------------------------
    def _compile_expr(self, expr: Expr) -> EvalFn:
        cached = self._expr_cache.get(expr.uid)
        if cached is not None:
            return cached
        fn = self._build_expr(expr)
        self._expr_cache[expr.uid] = fn
        return fn

    def _build_expr(self, expr: Expr) -> EvalFn:
        if isinstance(expr, IntConst):
            value = expr.value
            return lambda env, pe: value
        if isinstance(expr, FloatConst):
            fvalue = expr.value
            return lambda env, pe: fvalue
        if isinstance(expr, SymConst):
            bound = self.program.sym_value(expr.name)
            return lambda env, pe: bound
        if isinstance(expr, VarRef):
            name = expr.name
            return lambda env, pe: env[name]
        if isinstance(expr, ArrayRef):
            return self._build_array_read(expr)
        if isinstance(expr, UnaryOp):
            inner = self._compile_expr(expr.operand)
            if expr.op == "-":
                return lambda env, pe: -inner(env, pe)
            if expr.op == "not":
                return lambda env, pe: not inner(env, pe)
            return inner
        if isinstance(expr, IntrinsicCall):
            return self._build_intrinsic(expr)
        if isinstance(expr, BinOp):
            return self._build_binop(expr)
        raise InterpreterError(f"cannot evaluate {type(expr).__name__}")

    def _build_array_read(self, ref: ArrayRef) -> EvalFn:
        decl = self.program.array(ref.array)
        sub_fns = [self._compile_expr(s) for s in ref.subscripts]
        bypass = decl.is_shared and ref.mode == RefMode.BYPASS
        cacheable, craft, _ = self.config.spec.policy(decl)
        cacheable = cacheable and not bypass

        # Register promotion: a repeated read of the same element within
        # one iteration costs nothing (the compiler keeps it in a
        # register).  Only registered, address-stable reads qualify.
        if self._reg_stack and self._promotable(ref):
            key = ref.key()
            ctx = self._reg_stack[-1]
            if key in ctx.reads:
                registers = ctx.values
                inner = self._build_array_read_raw(ref, decl, sub_fns, cacheable,
                                                   bypass, craft)

                def read_promoted(env: dict, pe: int) -> float:
                    value = registers.get(key)
                    if value is None:
                        value = inner(env, pe)
                        registers[key] = value
                    return value

                return read_promoted
        return self._build_array_read_raw(ref, decl, sub_fns, cacheable,
                                          bypass, craft)

    def _build_array_read_raw(self, ref: ArrayRef, decl, sub_fns,
                              cacheable: bool, bypass: bool, craft: bool) -> EvalFn:
        machine = self.machine
        shape = decl.shape
        strides = decl.strides()
        array = ref.array

        if len(sub_fns) == 1:
            sub0 = sub_fns[0]
            extent0 = shape[0]

            def read1(env: dict, pe: int) -> float:
                idx = int(sub0(env, pe)) - 1
                if idx < 0 or idx >= extent0:
                    raise IndexError(f"{array}({idx + 1}) out of bounds 1..{extent0}")
                return machine.read(pe, array, idx, cacheable=cacheable,
                                    bypass=bypass, craft=craft)

            return read1

        if len(sub_fns) == 2:
            sub0, sub1 = sub_fns
            extent0, extent1 = shape
            stride1 = strides[1]

            def read2(env: dict, pe: int) -> float:
                i = int(sub0(env, pe)) - 1
                j = int(sub1(env, pe)) - 1
                if i < 0 or i >= extent0 or j < 0 or j >= extent1:
                    raise IndexError(
                        f"{array}({i + 1}, {j + 1}) out of bounds {shape}")
                return machine.read(pe, array, i + j * stride1,
                                    cacheable=cacheable, bypass=bypass, craft=craft)

            return read2

        def read_n(env: dict, pe: int) -> float:
            flat = 0
            for fn, extent, stride in zip(sub_fns, shape, strides):
                idx = int(fn(env, pe)) - 1
                if idx < 0 or idx >= extent:
                    raise IndexError(f"{array} subscript {idx + 1} out of bounds 1..{extent}")
                flat += idx * stride
            return machine.read(pe, array, flat, cacheable=cacheable,
                                bypass=bypass, craft=craft)

        return read_n

    def _compile_flat_index(self, ref: ArrayRef) -> Callable[[dict, int], int]:
        decl = self.program.array(ref.array)
        sub_fns = [self._compile_expr(s) for s in ref.subscripts]
        shape = decl.shape
        strides = decl.strides()
        array = ref.array

        if len(sub_fns) == 2:
            sub0, sub1 = sub_fns
            extent0, extent1 = shape
            stride1 = strides[1]

            def flat2(env: dict, pe: int) -> int:
                i = int(sub0(env, pe)) - 1
                j = int(sub1(env, pe)) - 1
                if i < 0 or i >= extent0 or j < 0 or j >= extent1:
                    raise IndexError(f"{array}({i + 1}, {j + 1}) out of bounds {shape}")
                return i + j * stride1

            return flat2

        def flat_n(env: dict, pe: int) -> int:
            flat = 0
            for fn, extent, stride in zip(sub_fns, shape, strides):
                idx = int(fn(env, pe)) - 1
                if idx < 0 or idx >= extent:
                    raise IndexError(f"{array} subscript {idx + 1} out of bounds 1..{extent}")
                flat += idx * stride
            return flat

        return flat_n

    def _build_binop(self, expr: BinOp) -> EvalFn:
        left = self._compile_expr(expr.left)
        right = self._compile_expr(expr.right)
        op = expr.op
        if op == "+":
            return lambda env, pe: left(env, pe) + right(env, pe)
        if op == "-":
            return lambda env, pe: left(env, pe) - right(env, pe)
        if op == "*":
            return lambda env, pe: left(env, pe) * right(env, pe)
        if op == "/":
            def divide(env, pe):
                a = left(env, pe)
                b = right(env, pe)
                if isinstance(a, int) and isinstance(b, int):
                    return int(a / b)  # Fortran integer division truncates
                return a / b
            return divide
        if op == "**":
            return lambda env, pe: left(env, pe) ** right(env, pe)
        if op == "mod":
            return lambda env, pe: math.fmod(left(env, pe), right(env, pe))
        if op == "min":
            return lambda env, pe: min(left(env, pe), right(env, pe))
        if op == "max":
            return lambda env, pe: max(left(env, pe), right(env, pe))
        if op == "<":
            return lambda env, pe: left(env, pe) < right(env, pe)
        if op == "<=":
            return lambda env, pe: left(env, pe) <= right(env, pe)
        if op == ">":
            return lambda env, pe: left(env, pe) > right(env, pe)
        if op == ">=":
            return lambda env, pe: left(env, pe) >= right(env, pe)
        if op == "==":
            return lambda env, pe: left(env, pe) == right(env, pe)
        if op == "!=":
            return lambda env, pe: left(env, pe) != right(env, pe)
        if op == "and":
            return lambda env, pe: bool(left(env, pe)) and bool(right(env, pe))
        if op == "or":
            return lambda env, pe: bool(left(env, pe)) or bool(right(env, pe))
        raise InterpreterError(f"unknown operator {op!r}")

    def _build_intrinsic(self, expr: IntrinsicCall) -> EvalFn:
        arg_fns = [self._compile_expr(a) for a in expr.args]
        name = expr.name
        if name == "sqrt":
            fn0 = arg_fns[0]
            return lambda env, pe: math.sqrt(fn0(env, pe))
        if name == "abs":
            fn0 = arg_fns[0]
            return lambda env, pe: abs(fn0(env, pe))
        if name == "exp":
            fn0 = arg_fns[0]
            return lambda env, pe: math.exp(fn0(env, pe))
        if name == "log":
            fn0 = arg_fns[0]
            return lambda env, pe: math.log(fn0(env, pe))
        if name == "sin":
            fn0 = arg_fns[0]
            return lambda env, pe: math.sin(fn0(env, pe))
        if name == "cos":
            fn0 = arg_fns[0]
            return lambda env, pe: math.cos(fn0(env, pe))
        if name == "min":
            fa, fb = arg_fns
            return lambda env, pe: min(fa(env, pe), fb(env, pe))
        if name == "max":
            fa, fb = arg_fns
            return lambda env, pe: max(fa(env, pe), fb(env, pe))
        if name == "mod":
            fa, fb = arg_fns
            return lambda env, pe: math.fmod(fa(env, pe), fb(env, pe))
        if name == "int":
            fn0 = arg_fns[0]
            return lambda env, pe: int(fn0(env, pe))
        if name == "real":
            fn0 = arg_fns[0]
            return lambda env, pe: float(fn0(env, pe))
        if name == "sign":
            fa, fb = arg_fns
            return lambda env, pe: math.copysign(abs(fa(env, pe)), fb(env, pe))
        raise InterpreterError(f"unknown intrinsic {name!r}")

    # ------------------------------------------------------------------
    # static costs
    # ------------------------------------------------------------------
    def _arith_cost(self, expr: Expr) -> float:
        """Arithmetic-only cycles of an expression (memory traffic is
        charged by the machine as it happens)."""
        total = expr_cost(expr, self.params)
        # expr_cost charges cache_hit per ArrayRef; strip that part since
        # the machine charges real access costs.
        loads = sum(1 for node in expr.walk() if isinstance(node, ArrayRef))
        return max(0.0, total - loads * self.params.cache_hit
                   - self.params.write_local * 0)


def _callee_contains_doall(program: Program, call: CallStmt,
                           _seen: Optional[set] = None) -> bool:
    seen = _seen or set()
    if call.name in seen:
        return False
    seen.add(call.name)
    callee = program.procedures[call.name]
    for stmt in callee.walk():
        if isinstance(stmt, Loop) and stmt.kind == LoopKind.DOALL:
            return True
        if isinstance(stmt, CallStmt) and _callee_contains_doall(program, stmt, seen):
            return True
    return False


def run_program(program: Program, params: MachineParams,
                version: str = Version.CCDP, on_stale: str = "record",
                trace_epochs: bool = False,
                backend: str = "reference",
                fault_plan=None, oracle: bool = False,
                tracer=None) -> RunResult:
    """One-call convenience: interpret ``program`` as the given version."""
    config = ExecutionConfig.for_version(version, on_stale=on_stale,
                                         backend=backend,
                                         fault_plan=fault_plan, oracle=oracle,
                                         tracer=tracer)
    return make_interpreter(program, params, config,
                            trace_epochs=trace_epochs).run()


def make_interpreter(program: Program, params: MachineParams,
                     config: Optional[ExecutionConfig] = None,
                     trace_epochs: bool = False,
                     trace_reads: bool = False) -> Interpreter:
    """Build the interpreter the config's backend asks for."""
    cfg = config or ExecutionConfig()
    if cfg.backend == "batched":
        from .batched import BatchedInterpreter
        return BatchedInterpreter(program, params, cfg,
                                  trace_epochs=trace_epochs,
                                  trace_reads=trace_reads)
    return Interpreter(program, params, cfg, trace_epochs=trace_epochs,
                       trace_reads=trace_reads)


__all__ = ["Interpreter", "InterpreterError", "RunResult", "EpochRecord",
           "run_program", "make_interpreter"]

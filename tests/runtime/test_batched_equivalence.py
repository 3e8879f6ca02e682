"""Differential equivalence: the batched backend must be bit-exact.

These tests are the enforcement arm of the batched backend's contract
(see ``repro/runtime/batched.py``): for every workload and program
version, running with ``backend="batched"`` must reproduce the
reference interpreter's elapsed cycles, per-PE statistics, cache state
and array contents *exactly* — no tolerances anywhere.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.ir as ir
from repro.faults import parse_fault_plan
from repro.harness.equivalence import check_workload, compare_backends
from repro.machine.params import t3d
from repro.runtime import ExecutionConfig, Version, run_program
from repro.runtime.batched import BatchedInterpreter
from repro.runtime.interp import make_interpreter
from repro.verify.gen import generate_with_choices

SIZES = {"mxm": 12, "vpenta": 8, "tomcatv": 10, "swim": 10}
#: Protocol-matrix sizes: TOMCATV needs n=20 to keep 16-PE chunks above
#: the batch threshold (at n=10 most of them are tiny and skipped).
PROTOCOL_SIZES = {"mxm": 12, "vpenta": 8, "tomcatv": 20, "swim": 10}


@pytest.mark.parametrize("name", sorted(SIZES))
@pytest.mark.parametrize("version", [Version.SEQ, Version.BASE, Version.CCDP,
                                     Version.NAIVE])
def test_workload_bit_exact(name, version):
    """Machine state AND the machine-event trace: ``trace=True`` runs
    both backends under an unbounded Tracer and diffs the full event
    streams and metrics timelines element by element."""
    params = t3d(4, cache_bytes=2048)
    report = check_workload(name, params, version, n=SIZES[name], trace=True)
    assert report.exact, report.summary()
    assert report.trace_events > 0


@pytest.mark.parametrize("name", sorted(SIZES))
@pytest.mark.parametrize("version", [Version.SEQ, Version.BASE, Version.CCDP])
def test_transformed_prefetch_replay_bit_exact(monkeypatch, name, version):
    """The prefetch *replay* path under real traffic: CCDP-transform every
    workload with the vector-prefetch generator disabled, so the schedule
    leans on line prefetches, and run the transformed program under each
    version's semantics.  SEQ/CCDP must show nonzero prefetch traffic
    (the queue scan/replay machinery is actually exercised); BASE's CRAFT
    semantics no-op prefetches, and must stay exact doing so.  Every
    serial and doall plan compiled on the way, the software pipeliner's
    ``__pf_<var>`` prologue loops included, has a generated scalar pass."""
    compiled = []
    real = BatchedInterpreter._compile_plan

    def collecting(self, *args, **kwargs):
        plan = real(self, *args, **kwargs)
        if plan is not None:
            compiled.append(plan)
        return plan

    monkeypatch.setattr(BatchedInterpreter, "_compile_plan", collecting)
    params = t3d(4, cache_bytes=2048)
    report = check_workload(name, params, version, n=SIZES[name],
                            transform=True, trace=True,
                            ccdp_overrides={"enable_vpg": False})
    assert report.exact, report.summary()
    assert report.batch_chunks > 0
    assert compiled
    missing = sorted(p.var for p in compiled if p.seq_fn is None)
    assert not missing, f"plans without a scalar pass: {missing}"
    issued = report.stats_batched.get("prefetch_issued", 0)
    if version == Version.BASE:
        assert issued == 0  # CRAFT: shared data uncached, prefetches no-op
    else:
        assert issued > 0, "replay path not exercised"


@settings(max_examples=8, deadline=None)
@given(queue_slots=st.integers(min_value=1, max_value=12))
def test_queue_capacity_property(queue_slots):
    """Bit-exactness must hold at *any* prefetch-queue capacity: small
    queues force drops (rule-2 bypass bookkeeping), large ones coalesce —
    both must replay identically to the reference interpreter."""
    params = t3d(4, cache_bytes=2048, prefetch_queue_slots=queue_slots)
    report = check_workload("mxm", params, Version.CCDP, n=8,
                            ccdp_overrides={"enable_vpg": False})
    assert report.exact, report.summary()
    assert report.stats_batched.get("prefetch_issued", 0) > 0


def test_mxm_ccdp_actually_batches():
    """Guard against silent fallback: the flagship workload must be
    serviced through bulk chunks, not the per-reference path."""
    from repro.coherence import CCDPConfig, ccdp_transform
    from repro.workloads import workload

    params = t3d(4, cache_bytes=2048)
    program, _ = ccdp_transform(workload("mxm").build(n=16),
                                CCDPConfig(machine=params))
    interp = make_interpreter(
        program, params,
        ExecutionConfig.for_version(Version.CCDP, backend="batched"))
    assert isinstance(interp, BatchedInterpreter)
    interp.run()
    assert interp.batch_chunks > 0
    assert interp.batch_fallbacks == 0


def test_run_program_backend_keyword():
    """``run_program(..., backend="batched")`` is the public entry."""
    from repro.workloads import workload

    params = t3d(1, cache_bytes=2048)
    program = workload("mxm").build(n=8)
    ref = run_program(program, params, Version.SEQ)
    bat = run_program(program, params, Version.SEQ, backend="batched")
    assert ref.elapsed == bat.elapsed
    assert np.array_equal(ref.value_of("c"), bat.value_of("c"))


def test_non_affine_body_falls_back():
    """A data-dependent subscript defeats slot binding; the batched
    backend must detect this at plan time and defer to the reference
    closures — still producing exact results."""
    b = ir.ProgramBuilder("gather")
    b.shared("idx", (16,))
    b.shared("x", (16,))
    b.shared("y", (16,))
    with b.proc("main"):
        with b.doall("j", 1, 16, label="init", align="x"):
            with b.do("i", 1, 1):
                b.assign(b.ref("idx", "j"), ir.E("j") * 1.0)
                b.assign(b.ref("x", "j"), ir.E("j") * 2.0)
        with b.doall("j", 1, 16, label="gather", align="x"):
            with b.do("i", 1, 1):
                b.assign(b.ref("y", "j"), b.ref("x", b.ref("idx", "j")))
    program = b.finish()
    params = t3d(2, cache_bytes=1024)
    report = compare_backends(program, params, Version.SEQ)
    assert report.exact, report.summary()


def test_stale_reads_preserved_under_naive():
    """NAIVE deliberately produces stale reads; the batched backend must
    not launder them away (its stale-word guard forces the reference
    path whenever a cached line is out of date)."""
    params = t3d(4, cache_bytes=2048)
    report = check_workload("tomcatv", params, Version.NAIVE, n=10)
    assert report.exact, report.summary()


@pytest.mark.parametrize("name", sorted(SIZES))
@pytest.mark.parametrize("version", [Version.SEQ, Version.BASE, Version.CCDP,
                                     Version.NAIVE])
def test_trace_and_oracle_together_bit_exact(name, version):
    """Tracer and coherence oracle on at once: the oracle is defined over
    the reference event order, so every chunk must take the exact
    fallback path — and the two backends' event streams, oracle verdicts
    and machine states must still match to the bit."""
    params = t3d(4, cache_bytes=2048)
    report = check_workload(name, params, version, n=8,
                            trace=True, oracle=True)
    assert report.exact, report.summary()


@pytest.mark.parametrize("name", ["tomcatv", "swim"])
@pytest.mark.parametrize("version", [Version.BASE, Version.CCDP])
def test_fused_time_loop_bit_exact(name, version):
    """The fused serial-outer x doall-inner region time loops, run for
    more steps than the matrix tests: later steps revisit memoised
    chunks and replay stored outcomes, which must stay exact."""
    params = t3d(4, cache_bytes=2048)
    report = check_workload(name, params, version, n=8, steps=4, trace=True)
    assert report.exact, report.summary()
    assert report.batch_chunks > 0


@pytest.mark.parametrize("var, scalar", [
    ("i", None),
    ("__pf_i", None),   # the software pipeliner's prologue-loop naming
    ("i", "_x"),
    ("i", "lambda"),
], ids=["i", "__pf_i", "_x", "lambda"])
def test_recurrence_chunk_compiles_scalar_pass(monkeypatch, var, scalar):
    """A distance-1 loop-carried recurrence defeats the vectorised value
    pass at the aliasing check; the chunk must instead run through the
    generated scalar function (``plan.seq_fn``) and stay bit-exact —
    including the final register residue the next statements observe.
    Program names never become Python identifiers in that function, so
    a ``__pf_``-prefixed loop variable, a ``_``-prefixed scalar and a
    Python keyword compile like any other name."""
    b = ir.ProgramBuilder("recur")
    b.shared("a", (64,))
    b.shared("b", (64,))
    if scalar is not None:
        b.scalar(scalar)
    with b.proc("main"):
        with b.doall("j", 1, 1, label="init", align="a"):
            with b.do("i", 1, 64):
                b.assign(b.ref("a", "i"), ir.E("i") * 1.5)
                b.assign(b.ref("b", "i"), ir.E("i") + 2.0)
        with b.doall("j", 1, 1, label="scan", align="a"):
            with b.do(var, 2, 64):
                rhs = b.ref("a", ir.E(var) - 1) * 0.5 + b.ref("b", var)
                if scalar is not None:
                    b.assign(b.var(scalar), rhs)
                    rhs = b.var(scalar) * 1.0
                b.assign(b.ref("a", var), rhs)
    program = b.finish()
    params = t3d(1, cache_bytes=1024)
    report = compare_backends(program, params, Version.SEQ, trace=True)
    assert report.exact, report.summary()
    # Record every run of a plan's compiled scalar pass.
    scalar_chunks = []
    compile_seq = BatchedInterpreter._compile_seq_fn

    def compiling(self, plan, *args):
        fn = compile_seq(self, plan, *args)

        def seq_fn(values, env, pe):
            scalar_chunks.append(plan.var)
            return fn(values, env, pe)

        return seq_fn

    monkeypatch.setattr(BatchedInterpreter, "_compile_seq_fn", compiling)
    interp = make_interpreter(
        program, params,
        ExecutionConfig.for_version(Version.SEQ, backend="batched"))
    result = interp.run()
    plans = {p.var: p for entry in interp._serial_plans.values()
             for p in entry[:1] if p is not None}
    assert var in plans, "recurrence loop not planned"
    assert all(p.seq_fn is not None for p in plans.values()), \
        "compiled scalar value pass missing"
    assert result.batch_chunks >= 2
    assert var in scalar_chunks, "recurrence chunk skipped the scalar pass"


def test_non_rectangular_fused_region_runs_per_row():
    """A doall whose body is one serial loop with row-dependent bounds
    (``do i = 1, j``) cannot fuse: fused chunks need rectangular rows.
    Each row's inner loop then runs as its own bulk chunk, bit-exact
    under a full event trace."""
    b = ir.ProgramBuilder("triangle")
    b.shared("a", (32, 32))
    b.shared("c", (32, 32))
    with b.proc("main"):
        with b.doall("j", 1, 32, label="init", align="a"):
            with b.do("i", 1, 32):
                b.assign(b.ref("a", "i", "j"), ir.E("i") * 0.5 + ir.E("j"))
        with b.doall("j", 1, 32, label="triangle", align="c"):
            with b.do("i", 1, "j"):
                b.assign(b.ref("c", "i", "j"),
                         b.ref("a", "i", "j") * 2.0 + 1.0)
    program = b.finish()
    params = t3d(4, cache_bytes=2048)
    report = compare_backends(program, params, Version.BASE, trace=True)
    assert report.exact, report.summary()
    assert report.trace_events > 0
    # One fused chunk per PE for the rectangular init, plus one chunk per
    # non-tiny triangle row.
    assert report.batch_chunks > 4 + params.n_pes


#: Small sizes keep a 64-PE example affordable while still producing
#: multi-chunk epochs, boundary chunks, and PEs with no work at all.
PROPERTY_SIZES = {
    "mxm": {"n": 8},
    "vpenta": {"n": 8},
    "tomcatv": {"n": 8, "steps": 2},
    "swim": {"n": 8, "steps": 2},
}


def _property_program(name, version, params):
    from repro.coherence import CCDPConfig, ccdp_transform
    from repro.workloads import workload

    program = workload(name).build(**PROPERTY_SIZES[name])
    if version == Version.CCDP:
        program, _ = ccdp_transform(program, CCDPConfig(machine=params))
    return program


@settings(max_examples=12, deadline=None)
@given(
    n_pes=st.integers(min_value=1, max_value=64),
    name=st.sampled_from(sorted(PROPERTY_SIZES)),
    version=st.sampled_from([Version.SEQ, Version.BASE, Version.CCDP]),
    queue_slots=st.integers(min_value=1, max_value=12),
)
def test_machine_shape_property_bit_exact(n_pes, name, version, queue_slots):
    """For any (n_pes, workload, version, prefetch-queue capacity): a
    batched run leaves the machine bit-identical to the reference."""
    params = t3d(n_pes=n_pes, cache_bytes=2048,
                 prefetch_queue_slots=queue_slots)
    program = _property_program(name, version, params)
    report = compare_backends(program, params, version)
    assert report.exact, report.summary()


def test_counts_only_tracer_totals_exact():
    """A counts-only tracer (``Tracer(sample=0)``, whose batched chunks
    fold straight into per-kind counters) must see the reference run's
    per-kind event totals at 8 PEs: on CCDP MXM, and on SWIM transformed
    without vector prefetches, whose line prefetches send chunks through
    the exact replay scan."""
    from repro.coherence import CCDPConfig, ccdp_transform
    from repro.obs import Tracer
    from repro.workloads import workload

    params = t3d(n_pes=8, cache_bytes=2048)
    swim, _ = ccdp_transform(
        workload("swim").build(n=10),
        CCDPConfig(machine=params).with_(enable_vpg=False))
    for program in (_property_program("mxm", Version.CCDP, params), swim):
        counts = {}
        for backend in ("reference", "batched"):
            tracer = Tracer(sample=0)
            result = run_program(program, params, Version.CCDP,
                                 backend=backend, tracer=tracer)
            counts[backend] = dict(tracer.counts)
        assert counts["reference"]
        assert counts["batched"] == counts["reference"]
        assert result.batch_chunks > 0
    assert result.stats.total().prefetch_issued > 0


@pytest.mark.parametrize("n_pes", [2, 4, 16])
@pytest.mark.parametrize("version", Version.PROTOCOL)
@pytest.mark.parametrize("name", sorted(PROTOCOL_SIZES))
def test_protocol_bit_exact(name, version, n_pes):
    """Hardware-protocol chunks run the bulk protocol timing pass when
    untraced and oracle-free: every line state, holder set, bus and
    directory horizon must match the reference, nearly every reference
    must be bulk-served, and no chunk may fall back at run time.  The
    256-byte cache forces dirty victims (``coh_wb evict``)."""
    params = t3d(n_pes, cache_bytes=256)
    report = check_workload(name, params, version, n=PROTOCOL_SIZES[name])
    assert report.exact, report.summary()
    assert report.coverage >= 0.9, report.coverage
    assert report.batch_fallbacks == 0
    assert report.stats_batched["writebacks"] > 0


@pytest.mark.parametrize("version", [Version.MESI, Version.DIR,
                                     Version.DIR_LP])
def test_protocol_bit_exact_past_64_pes(version):
    """65 PEs: holder and sharer bitmasks need bits past 63 (VPENTA at
    n=65 gives PE 64 shared lines), and the batched run must still match
    the reference in every protocol record."""
    report = check_workload("vpenta", t3d(65, cache_bytes=256), version,
                            n=65)
    assert report.exact, report.summary()
    assert report.coverage >= 0.9, report.coverage
    assert report.batch_fallbacks == 0


@pytest.mark.parametrize("version", [Version.MESI, Version.DIR])
@pytest.mark.parametrize("mode", ["traced", "oracle", "faulted"])
def test_protocol_fallbacks_stay_exact(mode, version):
    """Traced, oracle-checked and fault-injected protocol runs keep the
    reference path for every chunk, and stay exact doing so."""
    extra = {"traced": {"trace": True}, "oracle": {"oracle": True},
             "faulted": {"fault_plan": parse_fault_plan("light", seed=3)}}
    params = t3d(4, cache_bytes=256)
    report = check_workload("mxm", params, version, n=12, **extra[mode])
    assert report.exact, report.summary()
    assert report.batch_chunks == 0
    assert report.batch_fallbacks > 0


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_generated_programs_protocol_bit_exact(seed):
    """Differential property over generated programs: batched vs
    reference under MESI and the directory, untraced, protocol internals
    included in the diff."""
    program, choices = generate_with_choices(seed)
    for version in (Version.MESI, Version.DIR):
        report = compare_backends(program, t3d(4, cache_bytes=256), version)
        assert report.exact, f"{choices.describe()}: {report.summary()}"


def _no_plans(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("plan compiled for a run that must fall back")
    monkeypatch.setattr(BatchedInterpreter, "_compile_plan", refuse)


@pytest.mark.parametrize("version, extra, reason", [
    (Version.CCDP, {"oracle": True}, "fault_oracle"),
    (Version.CCDP, {"fault_plan": parse_fault_plan("light", seed=3)},
     "fault_oracle"),
    (Version.MESI, {"trace": True}, "protocol"),
    (Version.DIR, {"oracle": True, "trace": True}, "protocol"),
])
def test_run_wide_fallback_compiles_no_plan(monkeypatch, version, extra,
                                            reason):
    """A machine that sends every chunk to the reference path builds no
    plan at all, stays exact, and still counts each straight-line chunk
    under the run-wide reason code."""
    _no_plans(monkeypatch)
    report = check_workload("mxm", t3d(4, cache_bytes=256), version, n=12,
                            **extra)
    assert report.exact, report.summary()
    assert report.batch_chunks == 0
    assert report.batch_fallbacks > 0
    if reason == "fault_oracle":
        assert report.fault_fallbacks == report.batch_fallbacks


def test_race_checked_run_compiles_no_plan(monkeypatch):
    """Race checking armed on the machine after construction (as the
    race tests do) still makes the run plan-free, and exact."""
    from repro.coherence import CCDPConfig, ccdp_transform
    from repro.workloads import workload

    _no_plans(monkeypatch)
    params = t3d(4, cache_bytes=2048)
    program, _ = ccdp_transform(workload("mxm").build(n=12),
                                CCDPConfig(machine=params))
    results = {}
    for backend in ("reference", "batched"):
        interp = make_interpreter(program, params, ExecutionConfig.for_version(
            Version.CCDP, backend=backend))
        interp.machine.race_check = True
        results[backend] = interp.run()
    ref, bat = results["reference"], results["batched"]
    assert bat.elapsed == ref.elapsed
    assert bat.machine.stats.as_dict() == ref.machine.stats.as_dict()
    assert bat.machine.races == ref.machine.races
    for name, values in ref.machine.memory.values.items():
        assert np.array_equal(values, bat.machine.memory.values[name])
    assert bat.batch_chunks == 0
    assert bat.fallback_reasons["trace_or_race"] == bat.batch_fallbacks > 0


def test_traced_ccdp_run_keeps_planning(monkeypatch):
    """Counter-guard: a tracer alone is not a run-wide fallback.  A traced
    CCDP SWIM run (the trace-replay record run) compiles plans and keeps
    its bulk coverage."""
    compiled = []
    real = BatchedInterpreter._compile_plan

    def counting(self, *args, **kwargs):
        plan = real(self, *args, **kwargs)
        compiled.append(plan)
        return plan

    monkeypatch.setattr(BatchedInterpreter, "_compile_plan", counting)
    report = check_workload("swim", t3d(4, cache_bytes=2048), Version.CCDP,
                            n=16, trace=True)
    assert report.exact, report.summary()
    assert any(plan is not None for plan in compiled)
    assert report.coverage >= 0.95, report.coverage
    assert report.batch_fallbacks == 0


def test_vector_prefetches_are_recorded_as_skips():
    """Every ``PrefetchVector`` runs on the reference path; each execution
    shows up as a ``vector_prefetch`` skip, never as a fallback."""
    from repro.coherence import CCDPConfig, ccdp_transform
    from repro.ir.stmt import PrefetchVector
    from repro.ir.visitor import find_statements
    from repro.workloads import workload

    params = t3d(4, cache_bytes=2048)
    program, _ = ccdp_transform(workload("mxm").build(n=16),
                                CCDPConfig(machine=params))
    assert find_statements(program.entry_proc.body,
                           lambda s: isinstance(s, PrefetchVector))
    result = run_program(program, params, Version.CCDP, backend="batched")
    assert result.fallback_reasons["vector_prefetch"] > 0
    assert result.batch_fallbacks == 0
    issued = sum(pe.vectors.issued for pe in result.machine.pes)
    assert result.fallback_reasons["vector_prefetch"] >= issued > 0


def _vector_race_program(n=32, read=True):
    """Each PE's preamble vector-prefetches column 1 of ``x`` and its
    chunk reads that column at once, racing the transfer (``read``), or
    only writes ``y`` while the transfer is in flight."""
    from repro.ir.stmt import PrefetchVector

    b = ir.ProgramBuilder("vector_race")
    b.shared("x", (n, n))
    b.shared("y", (n, n))
    with b.proc("main"):
        with b.doall("j", 1, n, align="x"):
            with b.do("i", 1, n):
                b.assign(b.ref("x", "i", "j"), ir.E("i") * 1.0)
        with b.doall("j", 1, n, align="y") as loop:
            with b.do("i", 1, n):
                b.assign(b.ref("y", "i", "j"),
                         b.ref("x", "i", 1) if read else ir.E("i") * 2.0)
        loop.preamble.append(PrefetchVector(
            "x", [ir.IntConst(1), ir.IntConst(1)], axis=0, length=n))
    return b.finish()


@pytest.mark.parametrize("version", [Version.CCDP, Version.MESI])
def test_pe_clocks_stay_python_floats(monkeypatch, version):
    """``PE.clock`` is a plain slot, so nothing coerces what the batched
    commits, the vector-stall resolver and the protocol scan store into
    it: after a run on either backend, and after a barrier, every clock
    must be a Python ``float``.  So must the idle and vector-stall
    cycles the commit adds from resolved stalls."""
    from repro.workloads import workload

    stalls = []
    real = BatchedInterpreter._stall_clock

    def spying(self, *args, **kwargs):
        clock, chunk_stalls = real(self, *args, **kwargs)
        stalls.extend(chunk_stalls)
        return clock, chunk_stalls

    monkeypatch.setattr(BatchedInterpreter, "_stall_clock", spying)
    params = t3d(4, cache_bytes=1024)
    if version == Version.CCDP:
        program = _vector_race_program()
    else:
        program = workload("mxm").build(n=8)
    for backend in ("reference", "batched"):
        interp = make_interpreter(
            program, params,
            ExecutionConfig.for_version(version, backend=backend))
        interp.run()
        machine = interp.machine
        assert [type(pe.clock) for pe in machine.pes] == [float] * 4
        for pe in machine.pes:
            assert type(pe.stats.idle_cycles) is float, backend
            assert type(pe.stats.vector_stall_cycles) is float, backend
        machine.barrier()
        assert [type(pe.clock) for pe in machine.pes] == [float] * 4
    assert interp.batch_chunks > 0
    if version == Version.CCDP:
        assert stalls, "no chunk raced an in-flight vector transfer"


def _stale_free_cases():
    cases = [(name, version, 1) for name in sorted(PROTOCOL_SIZES)
             for version in (Version.SEQ, Version.BASE, Version.CCDP)]
    cases += [(name, version, n_pes) for name in sorted(PROTOCOL_SIZES)
              for version in Version.PROTOCOL for n_pes in (4, 16)]
    return cases


@pytest.mark.parametrize("name, version, n_pes", _stale_free_cases())
def test_no_stale_line_around_chunks_without_remote_copies(monkeypatch, name,
                                                           version, n_pes):
    """The invariant behind ``_stale_overlap``'s early exit: on a one-PE
    machine (seq, base and ccdp@1), and under a hardware protocol, no PE
    ever holds a stale resident line when a batched chunk starts or
    after it commits.  Only a remote write can leave a copy behind
    memory, and a protocol's write kills every remote copy."""
    from repro.coherence import CCDPConfig, ccdp_transform
    from repro.machine.batchops import stale_lines
    from repro.workloads import workload

    chunks = []

    def assert_fresh(interp):
        memory = interp.machine.memory
        for pe in interp.machine.pes:
            stale = stale_lines(pe.cache, memory.versions_flat)
            assert not stale.size, (pe.pe_id, stale[:4])

    def checked(real):
        def run(self, *args):
            assert_fresh(self)
            done = real(self, *args)
            if done:
                chunks.append(1)
                assert_fresh(self)
            return done
        return run

    monkeypatch.setattr(BatchedInterpreter, "_exec_chunk",
                        checked(BatchedInterpreter._exec_chunk))
    monkeypatch.setattr(BatchedInterpreter, "_exec_fused",
                        checked(BatchedInterpreter._exec_fused))
    params = t3d(n_pes, cache_bytes=2048)
    program = workload(name).build(n=PROTOCOL_SIZES[name])
    if version == Version.CCDP:
        program, _ = ccdp_transform(program, CCDPConfig(machine=params))
    run_program(program, params, version, backend="batched")
    assert chunks, "no batched chunk ran"


@pytest.mark.parametrize("side", ["below", "at"])
def test_value_pass_crossover_bit_exact(monkeypatch, side):
    """A non-fused chunk below ``MIN_VECTOR_ITERS`` iterations runs the
    generated scalar pass and never tries the vector pass; at the
    crossover it runs the vector pass.  Both stay bit-exact, event
    stream included."""
    from repro.runtime import batched

    crossover = batched.MIN_VECTOR_ITERS
    trips = crossover - 1 if side == "below" else crossover
    b = ir.ProgramBuilder("crossover")
    for name in ("a", "b", "c"):
        b.shared(name, (64,))
    with b.proc("main"):
        with b.doall("j", 1, 1, label="init", align="a"):
            with b.do("i", 1, 64):
                b.assign(b.ref("a", "i"), ir.E("i") * 1.5)
                b.assign(b.ref("b", "i"), ir.E("i") + 2.0)
        # Two loops in one doall body: nothing fuses, each is one chunk.
        with b.doall("j", 1, 1, label="body", align="c"):
            with b.do("i", 1, trips):
                b.assign(b.ref("c", "i"),
                         b.ref("a", "i") * b.ref("b", "i") + 1.0)
                b.assign(b.ref("a", "i"), b.ref("c", "i") - 0.5)
            with b.do("i", 1, 64):
                b.assign(b.ref("b", "i"), b.ref("b", "i") * 0.5)
    program = b.finish()
    ran = []  # (value-pass step, chunk iterations)

    def spy(kind, real, at):
        def run(self, plan, *args):
            ran.append((kind, args[at].shape[0]))
            return real(self, plan, *args)
        return run

    monkeypatch.setattr(BatchedInterpreter, "_vector_safe",
                        spy("safe", BatchedInterpreter._vector_safe, 0))
    monkeypatch.setattr(
        BatchedInterpreter, "_vector_value_pass",
        spy("vector", BatchedInterpreter._vector_value_pass, 2))
    compile_seq = BatchedInterpreter._compile_seq_fn

    def compiling(self, plan, loop, *args):
        fn = compile_seq(self, plan, loop, *args)

        def seq_fn(values, env, pe):
            ran.append(("scalar", len(values)))
            return fn(values, env, pe)

        return seq_fn

    monkeypatch.setattr(BatchedInterpreter, "_compile_seq_fn", compiling)
    report = compare_backends(program, t3d(1, cache_bytes=1024),
                              Version.SEQ, trace=True)
    assert report.exact, report.summary()
    assert report.trace_events > 0
    assert ("vector", 64) in ran  # the other loops still vectorise
    if side == "below":
        assert ("scalar", trips) in ran
        assert ("safe", trips) not in ran
    else:
        assert ("vector", trips) in ran
        assert ("scalar", trips) not in ran


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_lines=st.integers(min_value=1, max_value=64))
def test_chunk_guards_agree_with_isin(data, n_lines):
    """The stale-line guard and the sorted pending-line test answer
    exactly what a per-word search and ``np.isin`` would, for random
    resident tags (at most one line per set), cached and memory
    versions, chunk lines and queues."""
    from types import SimpleNamespace

    from repro.machine.batchops import touches_stale
    from repro.runtime.batched import _pending_hit

    lw = 4
    line_st = st.integers(min_value=0, max_value=4 * n_lines)
    tags = np.array(
        [k * n_lines + s if k >= 0 else -1 for s, k in enumerate(
            data.draw(st.lists(st.integers(min_value=-1, max_value=3),
                               min_size=n_lines, max_size=n_lines)))],
        dtype=np.int64)
    vers = np.array(data.draw(st.lists(
        st.integers(min_value=0, max_value=2), min_size=n_lines * lw,
        max_size=n_lines * lw)), dtype=np.int64).reshape(n_lines, lw)
    memory = np.array(data.draw(st.lists(
        st.integers(min_value=0, max_value=2), min_size=5 * n_lines * lw,
        max_size=5 * n_lines * lw)), dtype=np.int64)
    cache = SimpleNamespace(tags=tags, vers=vers, n_lines=n_lines,
                            line_words=lw)
    lines = sorted(set(data.draw(st.lists(line_st, min_size=1,
                                          max_size=12))))
    expect = any(tags[line % n_lines] == line
                 and vers[line % n_lines, o] < memory[line * lw + o]
                 for line in lines for o in range(lw))
    assert touches_stale(cache, memory, lines) == expect
    rows = data.draw(st.integers(min_value=1, max_value=6))
    cols = data.draw(st.integers(min_value=1, max_value=4))
    chunk = np.array(data.draw(st.lists(line_st, min_size=rows * cols,
                                        max_size=rows * cols)),
                     dtype=np.int64).reshape(rows, cols)
    pend = np.array(data.draw(st.lists(line_st, min_size=1, max_size=10)),
                    dtype=np.int64)
    assert _pending_hit(np.sort(pend), chunk) == \
        bool(np.isin(chunk, pend).any())


def _stale_line_program(stale_read: bool):
    """Two PEs, each caching one 4-word line of ``a`` (PE 0 a(1:4), PE 1
    a(5:8)); then each writes one word of the other's line (PE 1 a(3),
    PE 0 a(7)), which leaves that word stale in the other's copy.  In
    the third epoch each PE's chunk reads a word of its own line, writes
    a(2) or a(6) through it, and in its last iteration prefetches the
    line (invalidate first), which freezes it as a ghost with the stale
    word inside.  PE 1 reads a fresh word, a(5); PE 0 reads a fresh a(1)
    or, with ``stale_read``, the stale a(3)."""
    from repro.ir.stmt import PrefetchLine

    b = ir.ProgramBuilder("stale_line")
    b.shared("a", (16,))
    b.shared("c", (16,))
    e = ir.parse_expr
    with b.proc("main"):
        with b.doall("p", 1, 2, label="cache"):
            with b.do("i", 1, 4):
                b.assign(b.ref("c", e("4*p + i - 4")),
                         b.ref("a", e("4*p + i - 4")) + 1.0)
        with b.doall("p", 1, 2, label="cross"):
            with b.do("i", 1, 1):
                b.assign(b.ref("a", e("11 - 4*p")), ir.E("i") * 9.0)
        with b.doall("p", 1, 2, label="reuse"):
            with b.do("i", 1, 4):
                b.assign(b.ref("c", e("4*p + i - 4")),
                         b.ref("a", e("2*p + 1" if stale_read
                                      else "4*p - 3")) * 2.0)
                b.assign(b.ref("a", e("4*p - 2")),
                         b.ref("c", e("4*p + i - 4")) + 1.0)
                b.emit(PrefetchLine(ir.ArrayRef("a", [e("4*p + 4*i - 19")])))
    return b.finish()


def _committed_chunks(monkeypatch) -> list:
    """``(pe, has prefetch slots)`` of every chunk the batched backend
    commits from now on."""
    committed = []
    real = BatchedInterpreter._commit

    def spy(self, plan, pe_obj, *args, **kwargs):
        committed.append((pe_obj.pe_id, bool(plan.pf_idx)))
        return real(self, plan, pe_obj, *args, **kwargs)

    monkeypatch.setattr(BatchedInterpreter, "_commit", spy)
    return committed


def test_chunk_touching_a_stale_line_commits_exactly(monkeypatch):
    """A chunk that reads a fresh word of a line whose cached copy holds
    a stale word, writes into the line and then ghosts it is committed
    (the scan replays the stale line), and leaves every PE's cache data
    and versions — the frozen stale word included — as the reference
    does."""
    committed = _committed_chunks(monkeypatch)
    report = compare_backends(_stale_line_program(False),
                              t3d(2, cache_bytes=1024), Version.CCDP,
                              trace=True)
    assert report.exact, report.summary()
    assert (0, True) in committed and (1, True) in committed
    assert report.batch_fallbacks == 0
    # The reference run really ends with PE 0's a(1:4) ghosted around a
    # stale a(3) and the a(2) it wrote through.
    machine = report.result_ref.machine
    assert machine.stats.stale_reads == 0
    cache = machine.pes[0].cache
    s = machine.addr_map.addr("a", 0) // cache.line_words % cache.n_lines
    assert cache.tags[s] == -1
    assert cache.vers[s, 2] < machine.memory.version("a", 2)
    assert cache.vers[s, 1] == machine.memory.version("a", 1) > 0


def test_chunk_reading_a_stale_word_falls_back(monkeypatch):
    """Under naive caching, PE 0's chunk reads the stale a(3): it falls
    back (``stale_overlap``), so the reference counts the stale read
    exactly; PE 1's chunk, reading a fresh word of its own stale line,
    is still committed."""
    committed = _committed_chunks(monkeypatch)
    program = _stale_line_program(True)
    params = t3d(2, cache_bytes=1024)
    report = compare_backends(program, params, Version.NAIVE, trace=True)
    assert report.exact, report.summary()
    assert report.result_ref.stats.stale_reads > 0
    assert (1, True) in committed and (0, True) not in committed
    result = run_program(program, params, Version.NAIVE, backend="batched")
    assert result.fallback_reasons.get("stale_overlap") == 1
    assert result.batch_fallbacks == 1


def test_tomcatv_stale_lines_stay_on_the_bulk_path(monkeypatch):
    """TOMCATV ccdp on 16 PEs at n=9, the smallest size where chunks of
    loops 100/120 touch lines a neighbour PE left partly stale: none of
    them falls back, and every statistic, clock and cache word matches
    the reference."""
    reasons = []
    real = BatchedInterpreter._fall

    def spy(self, reason):
        reasons.append(reason)
        return real(self, reason)

    monkeypatch.setattr(BatchedInterpreter, "_fall", spy)
    report = check_workload("tomcatv", t3d(16, cache_bytes=2048),
                            Version.CCDP, n=9, trace=True)
    assert report.exact, report.summary()
    assert "stale_overlap" not in reasons
    assert report.batch_chunks > 0
    assert report.result_ref.stats.stale_reads == 0


def test_write_only_chunk_with_vector_transfer_in_flight():
    """A chunk with no cached read has nothing a vector transfer can
    stall, so it is priced without the stall resolver, bit-exact."""
    report = compare_backends(_vector_race_program(read=False),
                              t3d(4, cache_bytes=1024), Version.CCDP,
                              trace=True)
    assert report.exact, report.summary()
    assert report.batch_chunks > 0

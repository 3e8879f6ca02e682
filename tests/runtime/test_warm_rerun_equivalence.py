"""Warm-rerun equivalence: a reused batched interpreter must be bit-exact.

The plan cache (``runtime.plancache``) keeps whole batched interpreters
warm across runs and restores the canonical post-construction state with
``plancache._reset`` before each reuse.  Runs 2 and 3 of one interpreter
therefore start from reset state but with every plan, latency table and
compiled value pass already built — and every observable (arrays,
versions, per-PE stats, cache contents, prefetch queues, tracer counts)
must still match the reference interpreter exactly.  The reset also
retargets the machine tracer, so traced and untraced runs may alternate
on one interpreter.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence import CCDPConfig, ccdp_transform
from repro.machine.params import t3d
from repro.obs import Tracer
from repro.runtime import ExecutionConfig, Version
from repro.runtime import plancache
from repro.runtime.interp import make_interpreter
from repro.workloads import workload

#: Small sizes keep a 64-PE example affordable while still producing
#: multi-chunk epochs, boundary chunks, and PEs with no work at all.
SIZES = {
    "mxm": {"n": 8},
    "vpenta": {"n": 8},
    "tomcatv": {"n": 8, "steps": 2},
    "swim": {"n": 8, "steps": 2},
}


def _build(name, version, params):
    program = workload(name).build(**SIZES[name])
    if version == Version.CCDP:
        program, _ = ccdp_transform(program, CCDPConfig(machine=params))
    return program


def _machine_state(machine):
    """Every observable a backend could corrupt, as comparable values."""
    memory = machine.memory
    state = {
        "values": memory.values_flat.tobytes(),
        "versions": memory.versions_flat.tobytes(),
        "private": {name: arr.tobytes()
                    for name, arr in memory.private_values.items()},
        "stats": machine.stats.as_dict(),
        "stale_examples": list(machine.stats.stale_examples),
    }
    for pe in machine.pes:
        state[f"pe{pe.pe_id}"] = (
            pe.clock, dict(pe.stats.__dict__),
            pe.cache.tags.tobytes(), pe.cache.data.tobytes(),
            pe.cache.vers.tobytes(),
            tuple(pe.queue.snapshot()), pe.queue.issued, pe.queue.dropped,
            pe.queue.high_water,
            tuple((t.array, t.line_lo, t.line_hi, t.completion)
                  for t in pe.vectors.transfers),
            pe.vectors.issued,
            sorted(pe.dropped_lines), pe.last_prefetch_pe)
    return state


def _run(program, params, version, backend, runs=1):
    """Run ``runs`` times from the canonical reset state; return the
    final RunResult."""
    cfg = ExecutionConfig.for_version(version, backend=backend)
    interp = make_interpreter(program, params, cfg)
    result = interp.run()
    for _ in range(runs - 1):
        plancache._reset(interp, cfg)
        result = interp.run()
    return result


def _assert_same(ref_machine, got_machine, ref_elapsed, got_elapsed, label):
    assert ref_elapsed == got_elapsed, (
        f"{label}: elapsed {got_elapsed} != {ref_elapsed}")
    ref_state = _machine_state(ref_machine)
    got_state = _machine_state(got_machine)
    for key in ref_state:
        assert got_state[key] == ref_state[key], (
            f"{label}: mismatch in {key}")


@settings(max_examples=12, deadline=None)
@given(
    n_pes=st.integers(min_value=1, max_value=64),
    name=st.sampled_from(sorted(SIZES)),
    version=st.sampled_from([Version.SEQ, Version.BASE, Version.CCDP]),
    queue_slots=st.integers(min_value=1, max_value=12),
)
def test_warm_rerun_property_bit_exact(n_pes, name, version, queue_slots):
    """For any (n_pes, workload, version, queue capacity): the batched
    backend — cold, and warm reruns 2 and 3 from the reset state — must
    leave the machine bit-identical to the reference interpreter."""
    params = t3d(n_pes=n_pes, cache_bytes=2048,
                 prefetch_queue_slots=queue_slots)
    program = _build(name, version, params)

    ref_res = _run(program, params, version, "reference")
    for runs in (1, 2, 3):
        bat_res = _run(program, params, version, "batched", runs=runs)
        _assert_same(ref_res.machine, bat_res.machine,
                     ref_res.elapsed, bat_res.elapsed,
                     f"batched run {runs}")


def test_warm_rerun_tracer_counts_exact():
    """A counts-only tracer must see identical per-kind event totals
    from the reference run and from cold and warm batched runs."""
    params = t3d(n_pes=8, cache_bytes=2048)
    program = _build("mxm", Version.CCDP, params)
    counts = {}
    for label, backend, runs in (("reference", "reference", 1),
                                 ("batched", "batched", 1),
                                 ("warm", "batched", 3)):
        tracer = Tracer(sample=0)
        cfg = ExecutionConfig.for_version(Version.CCDP, backend=backend,
                                          tracer=tracer)
        interp = make_interpreter(program, params, cfg)
        interp.run()
        for _ in range(runs - 1):
            # The reset restores machine state but not the tracer, whose
            # counts span runs by design — clear so the final run's
            # totals are compared on their own.
            plancache._reset(interp, cfg)
            tracer.counts.clear()
            interp.run()
        counts[label] = dict(tracer.counts)
    assert counts["batched"] == counts["reference"]
    assert counts["warm"] == counts["reference"]


def test_warm_rerun_survives_tracer_mode_switch():
    """Alternating untraced and traced warm runs on one interpreter: the
    reset retargets the tracer, so every traced run sees the reference
    totals and every run stays bit-exact."""
    params = t3d(n_pes=8, cache_bytes=2048)
    program = _build("mxm", Version.CCDP, params)

    truth = Tracer(sample=0)
    cfg = ExecutionConfig.for_version(Version.CCDP, backend="reference",
                                      tracer=truth)
    ref_res = make_interpreter(program, params, cfg).run()

    cfg_off = ExecutionConfig.for_version(Version.CCDP, backend="batched")
    interp = make_interpreter(program, params, cfg_off)
    interp.run()
    plancache._reset(interp, cfg_off)
    interp.run()
    for _ in range(2):
        tracer = Tracer(sample=0)
        cfg_on = ExecutionConfig.for_version(
            Version.CCDP, backend="batched", tracer=tracer)
        plancache._reset(interp, cfg_on)
        result = interp.run()
        assert dict(tracer.counts) == dict(truth.counts)
        _assert_same(ref_res.machine, result.machine,
                     ref_res.elapsed, result.elapsed, "traced warm run")
    # ... and flipping back must still be exact.
    plancache._reset(interp, cfg_off)
    result = interp.run()
    _assert_same(ref_res.machine, result.machine,
                 ref_res.elapsed, result.elapsed, "untraced warm run")


def test_warm_rerun_under_oracle_exact_and_clean():
    """Under the oracle every chunk takes the exact reference path; a
    rerun of the same interpreter must stay exact and oracle-clean."""
    params = t3d(n_pes=4, cache_bytes=2048)
    program = _build("mxm", Version.CCDP, params)
    ref_res = _run(program, params, Version.CCDP, "reference")

    cfg = ExecutionConfig.for_version(Version.CCDP, backend="batched",
                                      oracle=True)
    interp = make_interpreter(program, params, cfg)
    interp.run()
    plancache._reset(interp, cfg)
    result = interp.run()
    assert result.oracle is not None
    assert not result.oracle.violations, result.oracle.summary()
    _assert_same(ref_res.machine, result.machine,
                 ref_res.elapsed, result.elapsed, "oracle run")

"""Warm-rerun equivalence: memo replays must be bit-exact.

The batched backend keeps two per-interpreter memos that replay a
recorded outcome whenever the same machine state recurs: the
chunk-outcome memo (``_chunk_memo``, replayed by ``_memo_replay``) and
the preamble memo (``_preamble_memo``).  A warm interpreter re-run from
the canonical reset state (``plancache._reset``) revisits every chunk
and preamble of the first run, so runs 2 and 3 are served by replays —
and every observable (arrays, versions, per-PE stats, cache contents,
prefetch queues, tracer counts) must still match the reference
interpreter exactly.
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


def _spy_memo_replays(interp):
    """Count chunk-memo replays on ``interp`` (instance-level wrapper)."""
    calls = [0]
    replay = interp._memo_replay

    def counted(*args):
        calls[0] += 1
        return replay(*args)

    interp._memo_replay = counted
    return calls


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
    backend — cold, and warm reruns 2 and 3 served by memo replays —
    must leave the machine bit-identical to the reference interpreter."""
    params = t3d(n_pes=n_pes, cache_bytes=2048,
                 prefetch_queue_slots=queue_slots)
    program = _build(name, version, params)

    ref_res = _run(program, params, version, "reference")
    for runs in (1, 2, 3):
        bat_res = _run(program, params, version, "batched", runs=runs)
        _assert_same(ref_res.machine, bat_res.machine,
                     ref_res.elapsed, bat_res.elapsed,
                     f"batched run {runs}")


def test_warm_rerun_replays_memos_exactly():
    """A warm rerun of MXM CCDP is served by chunk-memo replays, every
    preamble hits its memo (the memo does not grow on run 3), and the
    final state stays bit-identical to the reference."""
    params = t3d(n_pes=8, cache_bytes=2048)
    program = _build("mxm", Version.CCDP, params)
    ref_res = _run(program, params, Version.CCDP, "reference")

    cfg = ExecutionConfig.for_version(Version.CCDP, backend="batched")
    interp = make_interpreter(program, params, cfg)
    calls = _spy_memo_replays(interp)
    interp.run()
    for run in (2, 3):
        preambles = len(interp._preamble_memo)
        plancache._reset(interp, cfg)
        result = interp.run()
        _assert_same(ref_res.machine, result.machine,
                     ref_res.elapsed, result.elapsed, f"warm run {run}")
    assert calls[0] > 0, "chunk-memo replay never engaged"
    assert interp._preamble_memo, "preamble memo never recorded"
    assert len(interp._preamble_memo) == preambles, (
        "a warm preamble missed its memo")
    assert result.plane_chunks == 0 and result.plane_refs == 0


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
            # counts span runs by design — clear so the final (replay)
            # run's totals are compared on their own.
            plancache._reset(interp, cfg)
            tracer.counts.clear()
            interp.run()
        counts[label] = dict(tracer.counts)
    assert counts["batched"] == counts["reference"]
    assert counts["warm"] == counts["reference"]


def test_warm_rerun_survives_tracer_mode_switch():
    """Alternating untraced and traced warm runs on one interpreter:
    chunk-memo outcomes carry their event counts whichever mode recorded
    them, and preamble memo keys include the tracer mode, so every
    traced run sees the reference totals."""
    params = t3d(n_pes=8, cache_bytes=2048)
    program = _build("mxm", Version.CCDP, params)

    truth = Tracer(sample=0)
    cfg = ExecutionConfig.for_version(Version.CCDP, backend="reference",
                                      tracer=truth)
    ref_res = make_interpreter(program, params, cfg).run()

    cfg_off = ExecutionConfig.for_version(Version.CCDP, backend="batched")
    interp = make_interpreter(program, params, cfg_off)
    calls = _spy_memo_replays(interp)
    interp.run()
    plancache._reset(interp, cfg_off)
    interp.run()  # untraced outcomes recorded and replayed
    for _ in range(2):  # traced: first records its own outcomes, then replays
        tracer = Tracer(sample=0)
        cfg_on = ExecutionConfig.for_version(
            Version.CCDP, backend="batched", tracer=tracer)
        plancache._reset(interp, cfg_on)
        result = interp.run()
        assert dict(tracer.counts) == dict(truth.counts)
        _assert_same(ref_res.machine, result.machine,
                     ref_res.elapsed, result.elapsed, "traced warm run")
    assert calls[0] > 0, "chunk-memo replay never engaged"
    # ... and flipping back must still be exact.
    plancache._reset(interp, cfg_off)
    result = interp.run()
    _assert_same(ref_res.machine, result.machine,
                 ref_res.elapsed, result.elapsed, "untraced warm run")


def test_memos_stand_down_under_oracle_and_still_exact():
    """The oracle observes per-reference effects, so neither memo may
    record or replay under it — and the run must stay exact and
    oracle-clean, warm rerun included."""
    params = t3d(n_pes=4, cache_bytes=2048)
    program = _build("mxm", Version.CCDP, params)
    ref_res = _run(program, params, Version.CCDP, "reference")

    cfg = ExecutionConfig.for_version(Version.CCDP, backend="batched",
                                      oracle=True)
    interp = make_interpreter(program, params, cfg)
    calls = _spy_memo_replays(interp)
    interp.run()
    plancache._reset(interp, cfg)
    result = interp.run()
    assert calls[0] == 0
    assert not interp._chunk_memo and not interp._preamble_memo
    assert result.oracle is not None
    assert not result.oracle.violations, result.oracle.summary()
    _assert_same(ref_res.machine, result.machine,
                 ref_res.elapsed, result.elapsed, "oracle run")

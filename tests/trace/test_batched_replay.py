"""The batched replay path against the reference replay, full state.

Every trace here replays under every registered scheme, with the
coherence oracle off and on, once per backend.  The two machines must
agree on everything a later op could observe: stats and per-PE
counters, clocks, cache tags/data/versions, prefetch queues, dropped
lines, vector transfers, protocol states and directories (the
equivalence harness's ``_diff_stats``), memory values and versions,
per-epoch rows and the oracle's tallies.  A coverage floor per trace
and scheme class makes sure the bulk scans did the work: a batched path
that sent every op to the reference path would pass the diff and fail
the floor.

A Hypothesis property drives the same comparison with random per-PE op
streams on a 2-set cache, and checks that chunk boundaries stay
invisible under a protocol.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence import CCDPConfig, ccdp_transform
from repro.harness.equivalence import _diff_memory, _diff_stats
from repro.ir.arrays import REPLICATED, ArrayDecl
from repro.machine.addressing import layout_bases
from repro.machine.params import t3d
from repro.obs import Tracer
from repro.runtime import run_program
from repro.runtime.exec_config import SCHEMES, Backend
from repro.trace import TraceProgram
from repro.workloads import workload

GOLDEN_DIR = Path(__file__).parent.parent / "obs" / "golden"
GOLDEN = sorted(GOLDEN_DIR.glob("mxm_n8_*.jsonl"))
ALL_SCHEMES = tuple(SCHEMES)
PROTOCOLS = tuple(v for v, spec in SCHEMES.items() if spec.protocol)

#: ccdp traces with prefetch traffic: a tiny queue forces drop outcomes
#: and ``drop`` hints; TOMCATV adds line prefetches and extract hints.
SMALL_TRACES = {
    "swim": ({"n": 9, "steps": 2}, 4, 512, 2),
    "tomcatv": ({"n": 9, "steps": 2}, 4, 512, 2),
}

#: least bulk share per (trace, scheme class).  Measured: golden and
#: SWIM 0.99-1.0 everywhere; TOMCATV 0.49 (ccdp/naive/seq: every line
#: prefetch and extract/drop hint ends a segment) and 1.0 under
#: protocols and base, where prefetches are timing noops.
FLOORS = {"golden": (0.9, 0.9), "swim": (0.9, 0.95),
          "tomcatv": (0.4, 0.95)}


def full_diff(ref, bat) -> list:
    out: list = []
    _diff_stats(ref.machine, bat.machine, out)
    _diff_memory(ref.machine.memory, bat.machine.memory, out)
    if ref.elapsed != bat.elapsed:
        out.append(f"elapsed: {ref.elapsed} != {bat.elapsed}")
    if ref.epochs != bat.epochs:
        out.append("epoch rows differ")
    oa, ob = ref.machine.oracle, bat.machine.oracle
    if (oa and oa.summary()) != (ob and ob.summary()):
        out.append(f"{oa and oa.summary()} != {ob and ob.summary()}")
    return out


def both(trace, params, version, oracle=False, tracer=False):
    runs = []
    for backend in (Backend.REFERENCE, Backend.BATCHED):
        tr = Tracer() if tracer else None
        runs.append((trace.replay(params, version, backend=backend,
                                  oracle=oracle, tracer=tr), tr))
    return runs


def coverage(result) -> float:
    c = result.counters
    return c.bulk_ops / c.ops if c.ops else 1.0


@pytest.fixture(scope="module")
def small_traces():
    out = {}
    for name, (sizes, pes, cache, slots) in SMALL_TRACES.items():
        params = dataclasses.replace(t3d(pes, cache_bytes=cache),
                                     prefetch_queue_slots=slots)
        program = workload(name).build(
            **{**workload(name).default_args, **sizes})
        transformed, _ = ccdp_transform(program,
                                        CCDPConfig(machine=params))
        tracer = Tracer()
        run_program(transformed, params, "ccdp", tracer=tracer)
        out[name] = (TraceProgram.from_events(
            tracer.events, program.arrays.values(), pes), params)
    return out


def _check(trace, params, version, label, oracle):
    (ref, _), (bat, _) = both(trace, params, version, oracle=oracle)
    diffs = full_diff(ref, bat)
    assert not diffs, "\n".join(diffs[:10])
    floor = FLOORS[label][SCHEMES[version].protocol is not None]
    assert coverage(bat) >= floor, (label, version, bat.counters)
    return bat


@pytest.mark.parametrize("oracle", (False, True))
@pytest.mark.parametrize("version", ALL_SCHEMES)
@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_replay_full_state(path, version, oracle):
    decls = workload("mxm").build(n=8).arrays.values()
    trace = TraceProgram.from_jsonl(path, decls, 4)
    _check(trace, t3d(4, cache_bytes=2048), version, "golden", oracle)


@pytest.mark.parametrize("oracle", (False, True))
@pytest.mark.parametrize("version", ALL_SCHEMES)
@pytest.mark.parametrize("name", sorted(SMALL_TRACES))
def test_small_trace_replay_full_state(small_traces, name, version, oracle):
    trace, params = small_traces[name]
    bat = _check(trace, params, version, name, oracle)
    if name == "tomcatv" and SCHEMES[version].protocol is None \
            and SCHEMES[version].cache_shared:
        # The prefetch-heavy stream really exercises the breakers.
        assert {"prefetch", "queue_hint"} <= set(bat.counters.reasons)


@pytest.mark.parametrize("version", ("ccdp", "naive", "base", "mesi"))
def test_traced_replay_same_events(small_traces, version):
    """A tracer sees the same event stream from both backends; under a
    protocol the whole replay takes the reference path."""
    trace, params = small_traces["tomcatv"]
    (ref, tr_ref), (bat, tr_bat) = both(trace, params, version,
                                        tracer=True)
    assert not full_diff(ref, bat)
    assert tr_bat.events == tr_ref.events
    assert tr_bat.counts == tr_ref.counts
    if SCHEMES[version].protocol:
        assert bat.counters.bulk_ops == 0
        assert bat.counters.reasons == {"traced_protocol": ref.counters.ops}
    else:
        assert bat.counters.bulk_ops > 0


# -- Hypothesis: random op streams ------------------------------------------

#: small arrays so random ops collide on lines: ``a`` is lines 1-3,
#: ``b`` lines 4-5 and the private ``t`` line 6.
ARRAYS = [ArrayDecl(name="a", shape=(12,)), ArrayDecl(name="b", shape=(8,)),
          ArrayDecl(name="t", shape=(4,), dist=REPLICATED)]
SIZES = {d.name: d.size for d in ARRAYS}
LW = 4  # words per 32-byte line
BASE_LINE = {name: base // LW
             for name, base in layout_bases(ARRAYS, LW)[0].items()}
NAMES = st.sampled_from(sorted(SIZES))
FLATS = st.integers(0, 11)

ops_strategy = st.lists(st.one_of(
    st.tuples(st.just("r"), NAMES, FLATS,
              st.sampled_from((None, "hit", "miss", "extract", "drop",
                               "bypass", "uncached"))),
    st.tuples(st.just("w"), NAMES, FLATS),
    st.tuples(st.just("p"), NAMES, FLATS,
              st.sampled_from(("issue", "coalesce", "drop")),
              st.integers(0, 1), st.booleans()),
    st.tuples(st.just("v"), NAMES, FLATS, st.integers(1, 8), st.just(1),
              st.booleans()),
    st.tuples(st.just("i"), NAMES, FLATS, FLATS),
), max_size=40)


def _fit(op):
    """Clamp a drawn op into its array: prefetches name one of its
    lines, a vector covers at most the cache's two lines."""
    kind, name = op[0], op[1]
    size = SIZES[name]
    if kind == "p":
        return ("p", name, BASE_LINE[name] + op[2] % (size // LW)) + op[3:]
    flat = op[2] % size
    if kind == "v":
        return ("v", name, flat,
                min(op[3], size - flat, 2 * LW - flat % LW), 1, op[5])
    if kind == "i":
        return ("i", name, flat, max(flat, op[3] % size))
    return (kind, name, flat) + op[3:]


def _records(n_pes, streams, chunk_ops):
    """Per-epoch PE blocks, chunked, with barriers between epochs."""
    recs = []
    for epoch, stream in enumerate(streams):
        recs.append(("epoch", epoch, f"e{epoch}"))
        for pe in range(n_pes):
            ops = [_fit(op) for op in stream[pe]]
            for k in range(0, len(ops), chunk_ops):
                recs.append(("ops", pe, ops[k:k + chunk_ops]))
        recs.append(("barrier",))
        recs.append(("end_epoch", epoch, f"e{epoch}"))
    return recs


def _replay_both(epochs, version, n_pes=2):
    recs = _records(n_pes, epochs, 1 << 20)
    trace = TraceProgram(lambda: iter(recs), ARRAYS, n_pes)
    (ref, _), (bat, _) = both(trace, t3d(n_pes, cache_bytes=64), version)
    diffs = full_diff(ref, bat)
    assert not diffs, "\n".join(diffs[:10])
    return bat.counters


@pytest.mark.parametrize("epochs, version, reason", [
    # (``_fit`` turns a prefetch's index 0 into the line of a[0..3])
    # a read of a queued line would extract, not miss
    ([[[("p", "a", 0, "issue", 0, True), ("r", "a", 0, "hit")], []]],
     "ccdp", "queue_hint"),
    # a read of a dropped line degrades to a bypass fetch (rule 2)
    ([[[("p", "a", 0, "drop", 1, True), ("r", "a", 1, None)], []]],
     "ccdp", "queue_hint"),
    # a hit on a line another PE wrote is a stale read
    ([[[("r", "a", 0, None)], []], [[], [("w", "a", 0)]],
      [[("r", "a", 0, None)], []]], "naive", "stale"),
    # a write-through into a stale line refreshes one word, not the line
    ([[[("r", "a", 0, None)], []], [[], [("w", "a", 0)]],
      [[("w", "a", 1)], []]], "naive", "stale"),
])
def test_gated_ops_take_the_reference_path(epochs, version, reason):
    counters = _replay_both(epochs, version)
    assert counters.reasons.get(reason), counters.reasons


@settings(max_examples=40, deadline=None)
@given(n_pes=st.integers(2, 3),
       epochs=st.lists(st.lists(ops_strategy, min_size=3, max_size=3),
                       min_size=1, max_size=3),
       version=st.sampled_from(ALL_SCHEMES),
       oracle=st.booleans())
def test_random_streams_replay_identically(n_pes, epochs, version, oracle):
    params = t3d(n_pes, cache_bytes=64)  # 2 sets of 4 words
    recs = _records(n_pes, epochs, 1 << 20)
    trace = TraceProgram(lambda: iter(recs), ARRAYS, n_pes)
    (ref, _), (bat, _) = both(trace, params, version, oracle=oracle)
    diffs = full_diff(ref, bat)
    assert not diffs, "\n".join(diffs[:10])


@settings(max_examples=20, deadline=None)
@given(epochs=st.lists(st.lists(ops_strategy, min_size=3, max_size=3),
                       min_size=1, max_size=3),
       version=st.sampled_from(PROTOCOLS))
def test_protocol_chunk_boundaries_invisible(epochs, version):
    params = t3d(3, cache_bytes=64)
    machines = []
    for chunk_ops in (1, 7, 1 << 20):
        recs = _records(3, epochs, chunk_ops)
        trace = TraceProgram(lambda r=recs: iter(r), ARRAYS, 3)
        machines.append(trace.replay(params, version,
                                     backend=Backend.BATCHED))
    for other in machines[1:]:
        diffs = full_diff(machines[0], other)
        assert not diffs, "\n".join(diffs[:10])


def test_cli_serial_and_farm_print_one_record(tmp_path, capsys):
    """``ccdp replay`` builds the same record serially and as a farm
    cell: identical stdout, the bulk line naming why ops took the
    reference path, and the conformance verdict."""
    from repro.harness.cli import main

    args = ["replay", "--trace", str(GOLDEN_DIR / "mxm_n8_ccdp.jsonl"),
            "--workload", "mxm", "--n", "8", "--version", "ccdp",
            "--backend", "batched", "--oracle", "--conform"]
    assert main(args) == 0
    serial = capsys.readouterr()
    assert "reference path: vector=32" in serial.out
    assert "conformance: every folded counter matches" in serial.out
    assert "epoch   0" in serial.err  # the serial path streams epochs
    assert main(args + ["--farm-dir", str(tmp_path / "farm")]) == 0
    assert capsys.readouterr().out == serial.out

"""Trace-replay throughput: recorded references replayed per second.

An engineering benchmark for the trace frontend (DESIGN.md §9).  A
block-partitioned synthetic text trace — each PE walking its own slice,
so the batched bulk path can service every op — is replayed on both
backends, and the golden MXM CCDP trace (a recorded stream whose vector
prefetches each end a bulk segment and take the reference path) gives
the mixed-stream number.  Results land next to the interpreter's own
throughput numbers in ``BENCH_throughput.json``.

``REPRO_BENCH_QUICK=1`` shrinks the synthetic trace from 1M to 100k
accesses for CI perf smoke.
"""

import json
import os
import time
from pathlib import Path

from repro.machine.params import t3d
from repro.runtime.exec_config import Backend
from repro.trace import TraceProgram

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"
GOLDEN = (Path(__file__).resolve().parent.parent / "tests" / "obs"
          / "golden" / "mxm_n8_ccdp.jsonl")

N_PES = 4
WORDS_PER_PE = 1024

#: Floor for batched-over-reference replay speedup on the fully
#: bulk-eligible synthetic trace.  Measured ~1.6x; 1.2x leaves noise
#: margin while still catching a collapse of the bulk path.
BULK_SPEEDUP_FLOOR = 1.2
BULK_COVERAGE_FLOOR = 0.99


def _record(key: str, payload: dict) -> None:
    """Merge one benchmark result into the repo-root JSON ledger."""
    results = {}
    if RESULTS_PATH.exists():
        try:
            results = json.loads(RESULTS_PATH.read_text())
        except (ValueError, OSError):
            results = {}
    results[key] = payload
    RESULTS_PATH.write_text(json.dumps(results, indent=2, sort_keys=True)
                            + "\n")


def _synthetic_ops() -> int:
    return 100_000 if os.environ.get("REPRO_BENCH_QUICK") else 1_000_000


def _write_partitioned_trace(path, n_ops: int) -> None:
    ops_per_pe = 1000
    epochs = n_ops // (N_PES * ops_per_pe)
    with open(path, "w") as fh:
        fh.write(f"%pes {N_PES}\n%array x {N_PES * WORDS_PER_PE}\n")
        for e in range(epochs):
            for pe in range(N_PES):
                base = pe * WORDS_PER_PE
                lines = []
                for k in range(ops_per_pe):
                    addr = base + (e * 17 + k * 5) % WORDS_PER_PE
                    op = "write" if k % 4 == 3 else "read"
                    lines.append(f"x {op} {addr} {pe}\n")
                fh.write("".join(lines))
            fh.write("barrier\n")


def _best_of(fn, reps=3):
    best, result = float("inf"), None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_trace_replay_throughput(tmp_path, capsys):
    n_ops = _synthetic_ops()
    trace_path = tmp_path / "partitioned.trace"
    _write_partitioned_trace(trace_path, n_ops)
    program = TraceProgram.from_text(trace_path)
    reps = 2 if n_ops >= 1_000_000 else 3

    rates = {}
    results = {}
    for backend in (Backend.REFERENCE, Backend.BATCHED):
        seconds, result = _best_of(
            lambda b=backend: program.replay(
                t3d(N_PES, cache_bytes=2048), "ccdp", backend=b),
            reps=reps)
        refs = result.counters.ops
        rates[backend] = refs / seconds
        results[backend] = result
        _record(f"trace_replay_text_{n_ops // 1000}k_ccdp_{backend}", {
            "trace": "synthetic partitioned text", "ops": refs,
            "version": "ccdp", "backend": backend,
            "seconds_per_run": seconds,
            "refs_per_sec": refs / seconds,
            "bulk_ops": result.counters.bulk_ops,
            "fallbacks": result.counters.fallbacks,
        })
        with capsys.disabled():
            print(f"\n[trace-replay] text {n_ops // 1000}k ccdp "
                  f"{backend:9s} {refs / seconds:,.0f} refs/sec")

    bulk = results[Backend.BATCHED]
    coverage = bulk.counters.bulk_ops / bulk.counters.ops
    assert coverage >= BULK_COVERAGE_FLOOR, (
        f"bulk coverage {coverage:.3f} on a fully partitioned trace — "
        f"runs are falling back to the per-access path")
    assert (results[Backend.BATCHED].stats_dict()
            == results[Backend.REFERENCE].stats_dict())
    speedup = rates[Backend.BATCHED] / rates[Backend.REFERENCE]
    _record(f"trace_replay_text_{n_ops // 1000}k_ccdp_speedup",
            {"speedup": speedup, "coverage": coverage})
    assert speedup >= BULK_SPEEDUP_FLOOR, (
        f"batched replay speedup {speedup:.2f}x fell below the floor "
        f"{BULK_SPEEDUP_FLOOR}x")


def test_golden_trace_replay_throughput(capsys):
    """Mixed recorded stream (prefetches, hints, barriers): the golden
    MXM CCDP trace replayed end-to-end, geometry from the workload."""
    from repro.workloads import workload

    spec = workload("mxm")
    decls = spec.build(**{**spec.default_args, "n": 8}).arrays.values()
    program = TraceProgram.from_jsonl(GOLDEN, decls, N_PES)
    seconds, result = _best_of(
        lambda: program.replay(t3d(N_PES, cache_bytes=2048), "ccdp"))
    refs = result.counters.ops
    _record("trace_replay_golden_mxm_n8_ccdp", {
        "trace": GOLDEN.name, "ops": refs, "version": "ccdp",
        "backend": Backend.REFERENCE,
        "seconds_per_run": seconds,
        "refs_per_sec": refs / seconds,
    })
    with capsys.disabled():
        print(f"\n[trace-replay] golden mxm_n8_ccdp "
              f"{refs / seconds:,.0f} refs/sec ({refs} refs)")
    assert refs > 0

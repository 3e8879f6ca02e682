"""Simulator engine throughput: memory references simulated per second.

Not a paper experiment — an engineering benchmark that tracks the
simulator's own performance so regressions (and wins, like the batched
execution backend) are visible.  Every run appends its numbers to
``BENCH_throughput.json`` at the repo root, keyed by benchmark case, so
the perf trajectory is machine-readable across PRs.
"""

import json
import os
from pathlib import Path

import pytest

from repro.machine.params import t3d
from repro.runtime import Backend, Version, run_program

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

#: Per-workload benchmark sizes: MXM at the headline acceptance size,
#: the rest scaled to keep a full matrix run affordable.
WORKLOAD_SIZES = {
    "mxm": {"n": 24},
    "vpenta": {"n": 16},
    "tomcatv": {"n": 16, "steps": 2},
    "swim": {"n": 16, "steps": 2},
}

#: Regression floor for the batched backend's bulk-service coverage on
#: the flagship case (MXM CCDP).  Measured 1.000 — every reference is
#: served through a batched plan; a drop below the floor means chunks
#: started falling back to the per-reference path.
MXM_CCDP_COVERAGE_FLOOR = 0.95

#: Per-cell floors for the full (workload x version) matrix — every cell,
#: not just the flagship.  Coverage must stay >= 0.95 everywhere.
CELL_COVERAGE_FLOOR = 0.95

#: Cold speedup floors (batched over reference) per (workload, version)
#: cell: 0.5x the median of five cold best-of-5 runs of
#: ``test_per_cell_floors``, each a fresh process on a 2-vCPU Linux
#: x86-64 container (medians in the comments).  "Cold" means every rep
#: builds its own interpreter, so no rep reuses plans an earlier one
#: compiled.
CELL_SPEEDUP_FLOORS = {
    "mxm_base": 9.11,      # median 18.23x
    "mxm_ccdp": 4.32,      # median 8.64x
    "mxm_seq": 8.54,       # median 17.08x
    "swim_base": 1.72,     # median 3.45x
    "swim_ccdp": 1.16,     # median 2.33x
    "swim_seq": 3.26,      # median 6.54x
    "tomcatv_base": 0.91,  # median 1.83x
    "tomcatv_ccdp": 0.48,  # median 0.97x
    "tomcatv_seq": 1.77,   # median 3.54x
    "vpenta_base": 0.79,   # median 1.59x
    "vpenta_ccdp": 0.83,   # median 1.67x
    "vpenta_seq": 0.88,    # median 1.77x
    # Hardware-protocol cells (protocol timing pass): 0.5x the median of
    # ten cold runs of this test, each in a fresh process.
    "mxm_mesi": 2.10,      # median 4.21x
    "mxm_dir": 2.19,       # median 4.38x
    "swim_mesi": 0.93,     # median 1.85x
    "swim_dir": 0.94,      # median 1.89x
    "tomcatv_mesi": 0.76,  # median 1.51x
    "tomcatv_dir": 0.72,   # median 1.45x
    "vpenta_mesi": 0.78,   # median 1.56x
    "vpenta_dir": 0.78,    # median 1.56x
}

#: Versions the per-cell gate covers: the paper's three plus the snooping
#: and directory protocols, whose chunks take the protocol timing pass.
GATED_VERSIONS = (Version.SEQ, Version.BASE, Version.CCDP, Version.MESI,
                  Version.DIR)


def _quick() -> bool:
    """CI perf-smoke mode: the throughput matrix narrows to the flagship
    MXM CCDP cases; the per-cell floors gate still covers every cell."""
    return bool(os.environ.get("REPRO_BENCH_QUICK"))


def _transformed(built_programs, name: str, sizes: dict, n_pes: int = 4):
    from repro.coherence import CCDPConfig, ccdp_transform
    program, _ = ccdp_transform(
        built_programs(name, **sizes),
        CCDPConfig(machine=t3d(n_pes, cache_bytes=2048)))
    return program


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


@pytest.mark.parametrize("backend", [Backend.REFERENCE, Backend.BATCHED])
@pytest.mark.parametrize("version", [Version.SEQ, Version.BASE, Version.CCDP])
@pytest.mark.parametrize("name", sorted(WORKLOAD_SIZES))
def test_interpreter_throughput(name, version, backend, built_programs,
                                benchmark, capsys):
    if _quick() and (name != "mxm" or version != Version.CCDP):
        pytest.skip("REPRO_BENCH_QUICK: mxm ccdp only")
    sizes = WORKLOAD_SIZES[name]
    program = built_programs(name, **sizes)
    if version == Version.CCDP:
        program = _transformed(built_programs, name, sizes)
    params = t3d(1 if version == Version.SEQ else 4, cache_bytes=2048)

    result = benchmark(
        lambda: run_program(program, params, version, backend=backend))

    total = result.machine.stats.total()
    refs = total.reads + total.writes
    seconds = benchmark.stats.stats.min
    _record(f"{name}_n{sizes['n']}_{version}_{backend}", {
        "workload": name, **sizes, "version": version, "backend": backend,
        "refs_per_run": refs,
        "seconds_per_run": seconds,
        "refs_per_sec": refs / seconds,
        "batched_coverage": result.batched_coverage,
        "batch_fallbacks": result.batch_fallbacks,
    })
    with capsys.disabled():
        print(f"\n[throughput] {name:8s} {version:5s} {backend:9s} "
              f"{refs / seconds:,.0f} refs/sec ({refs} refs per run, "
              f"coverage {result.batched_coverage:.3f})")
    assert refs > 0
    if name == "mxm" and version == Version.CCDP and backend == Backend.BATCHED:
        assert result.batched_coverage >= MXM_CCDP_COVERAGE_FLOOR, (
            f"MXM CCDP batched coverage {result.batched_coverage:.3f} fell "
            f"below the recorded floor {MXM_CCDP_COVERAGE_FLOOR}")


def test_batched_backend_speedup(built_programs, capsys):
    """The headline acceptance number: batched vs reference refs/sec on
    MXM CCDP n=24.  Asserted ≥ 5x and recorded in the JSON ledger."""
    import time

    params = t3d(4, cache_bytes=2048)
    program = _transformed(built_programs, "mxm", {"n": 24})

    def best_of(backend, reps=3):
        best, result = float("inf"), None
        for _ in range(reps):
            start = time.perf_counter()
            result = run_program(program, params, Version.CCDP,
                                 backend=backend)
            best = min(best, time.perf_counter() - start)
        return best, result

    t_ref, res = best_of(Backend.REFERENCE)
    t_bat, res_bat = best_of(Backend.BATCHED)
    total = res.machine.stats.total()
    refs = total.reads + total.writes
    speedup = t_ref / t_bat
    _record("mxm_n24_ccdp_speedup", {
        "workload": "mxm", "n": 24, "version": Version.CCDP,
        "reference_refs_per_sec": refs / t_ref,
        "batched_refs_per_sec": refs / t_bat,
        "speedup": speedup,
        "batched_coverage": res_bat.batched_coverage,
    })
    with capsys.disabled():
        print(f"\n[speedup] mxm ccdp n=24: reference {refs / t_ref:,.0f} "
              f"refs/sec, batched {refs / t_bat:,.0f} refs/sec "
              f"({speedup:.2f}x)")
    assert speedup >= 5.0, f"batched speedup {speedup:.2f}x below 5x target"


def test_per_cell_floors(built_programs, capsys):
    """CI gate for the full-coverage fast path: EVERY (workload, version)
    cell of :data:`GATED_VERSIONS` must keep batched coverage >= 0.95, run
    at least its cold
    :data:`CELL_SPEEDUP_FLOORS` speedup over the reference backend, and
    take zero run-time fallbacks on fault-free runs.  Runs under
    REPRO_BENCH_QUICK too — this is the per-cell regression floor, not a
    benchmark.  Timing is best-of-5; every rep of both backends builds a
    fresh interpreter, so the gate cannot pass on state an earlier rep
    left warm."""
    import time

    reps = 5
    failures = []
    cells = {}
    for name in sorted(WORKLOAD_SIZES):
        sizes = WORKLOAD_SIZES[name]
        for version in GATED_VERSIONS:
            program = built_programs(name, **sizes)
            if version == Version.CCDP:
                program = _transformed(built_programs, name, sizes)
            params = t3d(1 if version == Version.SEQ else 4,
                         cache_bytes=2048)

            def best_of(backend):
                best, result = float("inf"), None
                for _ in range(reps):
                    start = time.perf_counter()
                    result = run_program(program, params, version,
                                         backend=backend)
                    best = min(best, time.perf_counter() - start)
                return best, result

            t_ref, _ = best_of(Backend.REFERENCE)
            t_bat, res = best_of(Backend.BATCHED)
            speedup = t_ref / t_bat
            cell = f"{name}_{version}"
            floor = CELL_SPEEDUP_FLOORS[cell]
            cells[cell] = {
                "speedup": speedup,
                "speedup_floor": floor,
                "batched_coverage": res.batched_coverage,
                "batch_fallbacks": res.batch_fallbacks,
                "fallback_reasons": dict(res.fallback_reasons),
            }
            with capsys.disabled():
                print(f"\n[floors] {name:8s} {version:5s} cold "
                      f"{speedup:7.2f}x (floor {floor:.2f}x) coverage "
                      f"{res.batched_coverage:.4f} "
                      f"fallbacks {res.batch_fallbacks}")
            if res.batched_coverage < CELL_COVERAGE_FLOOR:
                failures.append(
                    f"{cell}: coverage {res.batched_coverage:.4f} "
                    f"< {CELL_COVERAGE_FLOOR}")
            if speedup < floor:
                failures.append(
                    f"{cell}: cold speedup {speedup:.2f}x < {floor:.2f}x")
            if res.batch_fallbacks != 0:
                failures.append(
                    f"{cell}: {res.batch_fallbacks} run-time fallbacks "
                    f"({dict(res.fallback_reasons)}) on a fault-free run")
    _record("per_cell_floors", cells)
    assert not failures, "per-cell floors violated:\n" + "\n".join(failures)


#: Budget for the counts-only tracing tax on a cold per-PE batched run:
#: each timed run builds its own interpreter, plans included, and takes
#: ~19-21 ms on a 2-vCPU x86-64 container, where the tax measured
#: +3.6% to +11.3% over four runs (~0.7-2 ms of epoch snapshots and
#: per-chunk count folds).  The 20% budget dates from the few-ms warm
#: reruns this test used to time and is kept unchanged: it trips when
#: the count-fold path gains real per-chunk work, not on machine-state
#: variance.
TRACING_OVERHEAD_BUDGET = 0.20


def test_tracing_overhead(built_programs, capsys):
    """Tracing must not tax untraced runs: the tracer hooks are a single
    ``is None`` test on the hot paths, and the batched backend's
    counts-only mode folds whole chunks into per-kind counters without
    materialising tuples.  Gate: a counts-only ``Tracer(sample=0)`` run
    stays within budget of the tracer-disabled run on the flagship MXM
    CCDP case."""
    import time

    from repro.obs import Tracer

    params = t3d(4, cache_bytes=2048)
    program = _transformed(built_programs, "mxm", {"n": 24})

    def once(tracer):
        start = time.perf_counter()
        run_program(program, params, Version.CCDP, backend=Backend.BATCHED,
                    tracer=tracer)
        return time.perf_counter() - start

    once(None)
    once(Tracer(sample=0))  # one untimed run per arm: imports, lazy setup
    # Scheduler/frequency noise on a short run swamps a percent-level
    # signal, and it only ever *adds* time — so interleave many reps of
    # both arms (each sees the same machine conditions) and pool a
    # single global best per arm.  Both minima converge to each arm's
    # clean-machine floor, which makes their ratio — including the
    # signed raw value the ledger keeps — stable across processes,
    # where per-block ratios used to swing with whichever block drew
    # the quiet window.
    t_off = t_on = float("inf")
    for _ in range(30):
        t_off = min(t_off, once(None))
        t_on = min(t_on, once(Tracer(sample=0)))
    overhead = t_on / t_off - 1.0
    # Pooled minima can still cross by a hair (pure timer noise); the
    # ledger keeps the floored value — real overhead is never negative
    # — and the raw signed reading for diagnosing noise.
    _record("mxm_n24_ccdp_tracing_overhead", {
        "workload": "mxm", "n": 24, "version": Version.CCDP,
        "backend_path": "per_pe_batched",
        "seconds_untraced": t_off,
        "seconds_counts_only": t_on,
        "overhead_fraction": max(0.0, overhead),
        "overhead_fraction_raw": overhead,
    })
    with capsys.disabled():
        print(f"\n[tracing] mxm ccdp n=24 batched: untraced {t_off:.4f}s, "
              f"counts-only {t_on:.4f}s ({overhead * 100:+.1f}%)")
    assert overhead < TRACING_OVERHEAD_BUDGET, (
        f"counts-only tracing overhead {overhead * 100:.1f}% exceeds the "
        f"{TRACING_OVERHEAD_BUDGET:.0%} budget on MXM CCDP batched")


def test_transform_throughput(benchmark):
    """Compile-time cost of the full CCDP pipeline on SWIM (the largest
    program, with interprocedural inlining)."""
    from repro.coherence import CCDPConfig, ccdp_transform
    from repro.workloads import workload

    program = workload("swim").build(n=33, steps=3)
    config = CCDPConfig(machine=t3d(8, cache_bytes=2048))
    transformed, report = benchmark(lambda: ccdp_transform(program, config))
    _record("swim_n33_ccdp_transform", {
        "workload": "swim", "n": 33,
        "seconds_per_transform": benchmark.stats.stats.min,
    })
    assert report.targets.targets

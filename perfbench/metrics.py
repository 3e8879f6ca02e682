"""Names and units of every metric the benchmark prints.

Kept free of ``repro`` imports so the orchestrating process can label
results without importing the simulator.  ``BENCHMARK.json`` lists the
same names; ``test_selftest.py`` holds the two in step.
"""

from __future__ import annotations

from typing import List, Tuple

WORKLOADS = ("paper-grid", "scheme-race", "fuzz-campaign", "trace-replay")

KERNELS = ("mxm", "swim", "tomcatv", "vpenta")

#: grid workload -> (versions, PE counts); each kernel also runs seq@1.
#: paper-grid is the Table 1/2 grid, scheme-race the Table 3 race.
GRIDS = {
    "paper-grid": (("base", "ccdp"), (4, 64)),
    "scheme-race": (("ccdp", "mesi", "dir", "dir-lp"), (16,)),
}

#: schemes the trace-replay workload replays its recorded stream under
REPLAY_SCHEMES = ("ccdp", "mesi")

#: every scheme some workload runs through ``run_program``
RUN_SCHEMES = ("seq", "base", "ccdp", "mesi", "dir", "dir-lp")

#: the batched backend's fallback/skip reason codes
FALLBACK_REASONS = ("tiny_chunk", "oob_bind", "stale_overlap", "replay_costs",
                    "queue_squeeze", "replay_hazard", "trace_or_race",
                    "protocol", "fault_oracle", "env_nonint")

#: span layers (first component of a span name); ``bench`` is the root
LAYERS = ("bench", "workloads", "coherence", "verify", "runtime", "harness",
          "farm", "obs", "trace", "cell")

#: simulated machine totals, summed over every run and replay
MACHINE_TOTALS = ("sim_cycles", "cache_hits", "cache_misses",
                  "prefetch_issued", "prefetch_dropped", "stale_reads",
                  "bus_tx", "invalidations", "c2c", "dir_msgs")

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("refs_per_s", "1/s"),
    ("slowest_op_s", "s"),
    ("peak_rss_mb", "MB"),
]


def cell_name(kernel: str, version: str, n_pes: int) -> str:
    """Op name of one grid cell (also the key of its pinned digest)."""
    return f"{kernel}/{version}@{n_pes}"


def cell_metric(kernel: str, version: str, n_pes: int) -> str:
    return f"cell.{kernel}.{version}.p{n_pes}_s"


def grid_cells(workload: str, kernels=KERNELS) -> List[Tuple[str, str, int]]:
    """(kernel, version, PEs) of a grid, in the sweep's serial order."""
    versions, pe_counts = GRIDS[workload]
    cells = []
    for kernel in kernels:
        cells.append((kernel, "seq", 1))
        cells.extend((kernel, version, n) for n in pe_counts
                     for version in versions)
    return cells


def per_layer() -> List[Tuple[str, str]]:
    out = [
        ("workloads.build_s", "s"), ("workloads.oracle_s", "s"),
        ("workloads.check_s", "s"),
        ("coherence.transform_s", "s"), ("coherence.transforms", "count"),
        ("verify.gen_s", "s"), ("verify.safety_s", "s"),
        ("verify.violations", "count"),
        ("runtime.run_s", "s"), ("runtime.refs", "count"),
        ("runtime.ns_per_ref", "ns"), ("runtime.batched_coverage", "frac"),
        ("runtime.batch_chunks", "count"), ("runtime.batch_fallbacks", "count"),
    ]
    out += [(f"runtime.fallback.{r}", "count") for r in FALLBACK_REASONS]
    out += [
        ("runtime.plane_coverage", "frac"), ("runtime.plane_chunks", "count"),
        ("harness.plan_hits", "count"), ("harness.compare_backends_s", "s"),
        ("harness.paper_err_pp", "pp"),
        ("farm.overhead_s", "s"), ("farm.cells", "count"),
        ("farm.cached", "count"), ("farm.retries", "count"),
        ("obs.record_s", "s"), ("obs.events", "count"),
        ("obs.export_s", "s"), ("obs.export_mb", "MB"),
        ("obs.reconcile_s", "s"),
    ]
    out += [(f"trace.replay_s.{v}", "s") for v in REPLAY_SCHEMES]
    out += [("trace.ops", "count"), ("trace.bulk_coverage", "frac"),
            ("trace.fallbacks", "count")]
    out += [(f"machine.ns_per_ref.{v}", "ns") for v in RUN_SCHEMES]
    out += [(f"machine.{t}", "count") for t in MACHINE_TOTALS]
    seen = set()
    for workload in GRIDS:
        for cell in grid_cells(workload):
            name = cell_metric(*cell)
            if name not in seen:
                seen.add(name)
                out.append((name, "s"))
    out += [(f"bench.self_s.{layer}", "s") for layer in LAYERS]
    out += [("bench.trace_overhead_frac", "frac"),
            ("bench.unattributed_frac", "frac")]
    return out

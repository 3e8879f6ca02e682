"""The benchmark's four workloads, their correctness gates and counters.

Each workload drives the public API on one thread (``jobs=1``) and
leaves behind a list of *ops* — grid cells, fuzz seeds, or the trace
record/export/replay steps — each with its host time and, after
:func:`check`, a failure string or ``""``.  Why these four, and which
layer each one stresses, is in ``README.md`` next to this file.

Simulated statistics are deterministic, so every grid cell and every
trace step is held to a digest pinned in ``pinned.json`` from the
*reference* backend (``pin.py`` rewrites it): the batched path the
workloads run must reproduce ground truth exactly.

Module attributes of ``repro`` are looked up at call time (``runtime.
run_program``, not a copied name) so the traced run's wrappers see
every call the benchmark makes itself.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.coherence as coherence
import repro.harness.equivalence as equivalence
import repro.harness.experiment as experiment
import repro.obs as obs
import repro.runtime as runtime
import repro.verify.gen as gen
import repro.verify.safety as safety
import repro.workloads as workloads
from repro import farm as farm_pkg
from repro.harness import paper_data, progcache
from repro.harness.sweep import SweepSpec, sweep_grid
from repro.machine.params import t3d
from repro.obs import fold
from repro.trace import TraceProgram, read_jsonl_events
from repro.verify import fuzz

from metrics import (FALLBACK_REASONS, GRIDS, KERNELS, MACHINE_TOTALS,
                     REPLAY_SCHEMES, RUN_SCHEMES, cell_metric, cell_name,
                     grid_cells, per_layer)
from spans import Recorder, rebind

PINS_PATH = Path(__file__).with_name("pinned.json")

#: PEs of every fuzz-campaign program
FUZZ_PES = 4


@dataclass(frozen=True)
class Scale:
    """Problem sizes.  ``FULL`` is the benchmark; ``TOY`` the self-test."""

    name: str
    kernels: tuple = KERNELS
    size_args: tuple = ()        #: sorted (name, value) overrides
    fuzz_seeds: int = 50
    trace_kernel: str = "swim"
    trace_pes: int = 8


FULL = Scale("full")
TOY = Scale("toy", kernels=("mxm",), size_args=(("n", 8),), fuzz_seeds=2,
            trace_kernel="mxm", trace_pes=2)
SCALES = {s.name: s for s in (FULL, TOY)}


def stats_digest(elapsed: float, stats: Dict[str, float], **extra) -> str:
    """Digest of one run's simulated statistics (int/float spelling
    normalised, so both backends hash equal values equally)."""
    blob = json.dumps({"elapsed": repr(float(elapsed)),
                       "stats": {k: repr(float(v))
                                 for k, v in sorted(stats.items())},
                       **extra}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def load_pins(scale: Scale) -> Dict[str, str]:
    with open(PINS_PATH) as fh:
        return json.load(fh)[scale.name]


# -- counters ------------------------------------------------------------------

class Observer:
    """Counts what the layers return: simulated refs, batched-path
    coverage and fallbacks, machine totals, farm and replay outcomes.
    Installed in every run; the traced run adds a :class:`Recorder`."""

    def __init__(self) -> None:
        self.refs = 0                       # every simulated read + write
        self.run_refs = 0                   # ... of run_program calls
        self.batch_refs = 0
        self.plane_refs = 0
        self.batch_chunks = 0
        self.batch_fallbacks = 0
        self.plane_chunks = 0
        self.reasons = {r: 0 for r in FALLBACK_REASONS}
        self.refs_by_scheme = {v: 0 for v in RUN_SCHEMES}
        self.machine = {t: 0.0 for t in MACHINE_TOTALS}
        self.transforms = 0
        self.violations = 0
        self.farm_cells = 0
        self.farm_cached = 0
        self.farm_retries = 0
        self.trace_ops = 0
        self.trace_bulk_ops = 0
        self.trace_fallbacks = 0

    def _machine(self, machine, elapsed: float) -> int:
        total = machine.stats.total()
        m = self.machine
        m["sim_cycles"] += elapsed
        m["cache_hits"] += total.cache_hits
        m["cache_misses"] += total.cache_misses
        m["prefetch_issued"] += total.prefetch_issued
        m["prefetch_dropped"] += total.pf_dropped
        m["stale_reads"] += machine.stats.stale_reads
        m["bus_tx"] += total.bus_rd + total.bus_rdx + total.bus_upgr
        m["invalidations"] += total.invalidations + total.coh_invalidations
        m["c2c"] += total.c2c_transfers
        m["dir_msgs"] += total.dir_messages
        refs = total.reads + total.writes
        self.refs += refs
        return refs

    def run(self, result, args, kwargs) -> None:
        refs = self._machine(result.machine, result.elapsed)
        self.run_refs += refs
        version = result.config.version
        self.refs_by_scheme[version] = \
            self.refs_by_scheme.get(version, 0) + refs
        self.batch_refs += result.batch_refs
        self.plane_refs += result.plane_refs
        self.batch_chunks += result.batch_chunks
        self.batch_fallbacks += result.batch_fallbacks
        self.plane_chunks += result.plane_chunks
        for reason, n in result.fallback_reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + n

    def compare(self, report, args, kwargs) -> None:
        # compare_backends simulates the program twice, once per backend
        stats = report.stats_batched
        self.refs += 2 * int(stats["reads"] + stats["writes"])

    def replay(self, result, args, kwargs) -> None:
        self._machine(result.machine, result.elapsed)
        self.trace_ops += result.counters.ops
        self.trace_bulk_ops += result.counters.bulk_ops
        self.trace_fallbacks += result.counters.fallbacks

    def farm(self, result, args, kwargs) -> None:
        self.farm_cells += len(result.outcomes)
        self.farm_cached += result.cached
        self.farm_retries += result.retries

    def transform(self, result, args, kwargs) -> None:
        self.transforms += 1

    def safety(self, report, args, kwargs) -> None:
        self.violations += len(report.violations)


def _cell_span(payload) -> str:
    """Span name of one farm work item: grid cells by coordinates."""
    if isinstance(payload, tuple) and len(payload) == 2 \
            and hasattr(payload[1], "n_pes"):
        cell = payload[1]
        return "cell." + cell_metric(cell.workload, cell.version,
                                     cell.n_pes)[5:-2]
    return "cell.fuzz"


def install(observer: Observer, recorder: Optional[Recorder]) -> None:
    """Hook the layers' public entry points.  Without a recorder only
    the counting hooks go in; with one, every entry point gets a span."""

    def hook(fn, name, on_result=None):
        if recorder is not None:
            return recorder.wrap(fn, name, on_result)
        if on_result is None:
            return None

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result, args, kwargs)
            return result
        return counted

    def put(fn, name, on_result=None):
        wrapped = hook(fn, name, on_result)
        if wrapped is not None:
            rebind(fn, wrapped)

    put(runtime.run_program,
        lambda program, params, version=runtime.Version.CCDP, *a, **kw:
        f"runtime.run.{version}", observer.run)
    put(equivalence.compare_backends, "harness.compare_backends",
        observer.compare)
    replay = TraceProgram.replay
    TraceProgram.replay = hook(
        replay, lambda self, params, version, **kw: f"trace.replay.{version}",
        observer.replay)

    run_farm = farm_pkg.run_farm

    def farm_call(worker, jobs, *args, **kwargs):
        if recorder is not None:
            worker = recorder.wrap(worker, lambda p: _cell_span(p))
        return run_farm(worker, jobs, *args, **kwargs)
    rebind(run_farm, hook(farm_call, "farm.run_farm", observer.farm))

    put(coherence.ccdp_transform, "coherence.transform", observer.transform)
    put(safety.verify_transform, "verify.safety", observer.safety)
    if recorder is None:
        return
    for spec in workloads.all_workloads():
        object.__setattr__(spec, "build",
                           recorder.wrap(spec.build, "workloads.build"))
        object.__setattr__(spec, "oracle",
                           recorder.wrap(spec.oracle, "workloads.oracle"))
    put(workloads.check_result, "workloads.check")
    put(gen.generate_with_choices, "verify.gen")
    put(obs.write_jsonl, "obs.export")
    put(fold.reconcile, "obs.reconcile")


# -- workloads -----------------------------------------------------------------

class Ops:
    """Op timings from progress callbacks: each op runs from the previous
    op's completion (or the start) to its own; ``bounds`` keeps both
    ``perf_counter`` stamps for the host-speed conversion."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.seconds: List[float] = []
        self.bounds: List[Tuple[float, float]] = []
        self._last = time.perf_counter()

    def done(self, name: str) -> None:
        now = time.perf_counter()
        self.names.append(name)
        self.seconds.append(now - self._last)
        self.bounds.append((self._last, now))
        self._last = now


@dataclass
class Outcome:
    """What a workload hands its checker."""

    ops: Ops
    data: dict


def run_grid(workload: str, scale: Scale, seed: int, workdir: Path,
             backend: str = "batched") -> Outcome:
    """``sweep_grid`` over the grid's kernels, ephemeral farm (as
    ``ccdp table1`` runs it).  Deterministic: ``seed`` is unused."""
    versions, pe_counts = GRIDS[workload]
    specs = [SweepSpec.create(k, size_args=dict(scale.size_args),
                              pe_counts=pe_counts, versions=versions,
                              backend=backend)
             for k in scale.kernels]
    cells = grid_cells(workload, scale.kernels)
    ops = Ops()
    collect: dict = {}
    sweeps = sweep_grid(specs, jobs=1, collect=collect,
                        progress=lambda done, total, text:
                        ops.done(cell_name(*cells[done - 1])))
    return Outcome(ops, {"sweeps": sweeps, "farm": collect["farm"]})


def run_fuzz(scale: Scale, seed: int, workdir: Path,
             backend: str = "batched") -> Outcome:
    """``fuzz_seeds`` over consecutive generator seeds starting at the
    workload seed, journaled into a fresh farm dir."""
    seeds = list(range(seed, seed + scale.fuzz_seeds))
    ops = Ops()
    collect: dict = {}
    results = fuzz.fuzz_seeds(
        seeds, n_pes=FUZZ_PES, jobs=1, collect=collect,
        farm=farm_pkg.FarmConfig(farm_dir=str(workdir / "farm")),
        progress=lambda done, total, result: ops.done(f"seed {result.seed}"))
    return Outcome(ops, {"results": results, "farm": collect["farm"]})


def run_trace(scale: Scale, seed: int, workdir: Path,
              backend: str = "batched",
              recorder: Optional[Recorder] = None) -> Outcome:
    """Record a CCDP run with a Tracer, export it to JSONL, replay the
    file under each of ``REPLAY_SCHEMES`` (ccdp with a conformance
    reconcile against the source events).  Deterministic: ``seed`` is
    unused."""
    ops = Ops()
    spec = workloads.workload(scale.trace_kernel)
    sizes = {**spec.default_args,
             **{k: v for k, v in scale.size_args if k in spec.default_args}}
    params = t3d(scale.trace_pes, cache_bytes=experiment.SCALED_CACHE_BYTES)

    with recorder.span("obs.record") if recorder is not None \
            else nullcontext():
        program = spec.build(**sizes)
        transformed, _ = coherence.ccdp_transform(
            program, coherence.CCDPConfig(machine=params))
        tracer = obs.Tracer()
        run = runtime.run_program(transformed, params, "ccdp",
                                  backend=backend, tracer=tracer)
        oracle_error = workloads.check_result(
            {a: run.value_of(a) for a in spec.check_arrays},
            spec.oracle(**sizes), spec.check_arrays)
    ops.done("trace/record")

    path = workdir / "trace.jsonl"
    lines = obs.write_jsonl(tracer.events, path)
    ops.done("trace/export")

    replay_program = TraceProgram.from_jsonl(
        path, list(program.arrays.values()), scale.trace_pes)
    replays = {}
    conform = None
    for version in REPLAY_SCHEMES:
        replays[version] = replay_program.replay(params, version,
                                                 backend=backend)
        if version == "ccdp":
            conform = fold.reconcile(
                (event for _, event in read_jsonl_events(path)),
                replays[version].machine, skip=fold.TIMING_DEPENDENT_FIELDS)
        ops.done(f"trace/replay-{version}")
    return Outcome(ops, {
        "run": run, "events": len(tracer.events), "oracle": oracle_error,
        "path": path, "lines": lines, "export_mb": path.stat().st_size / 1e6,
        "replays": replays, "conform": conform})


def run_workload(workload: str, scale: Scale, seed: int, workdir: Path,
                 backend: str = "batched",
                 recorder: Optional[Recorder] = None) -> Outcome:
    if workload in GRIDS:
        return run_grid(workload, scale, seed, workdir, backend)
    if workload == "fuzz-campaign":
        return run_fuzz(scale, seed, workdir, backend)
    if workload == "trace-replay":
        return run_trace(scale, seed, workdir, backend, recorder)
    raise ValueError(f"unknown workload {workload!r}")


# -- correctness ---------------------------------------------------------------

def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:20]


def digests(workload: str, outcome: Outcome) -> Dict[str, str]:
    """Op name -> digest of its simulated statistics (or export bytes)."""
    data = outcome.data
    out: Dict[str, str] = {}
    if workload in GRIDS:
        for sweep in data["sweeps"]:
            records = [sweep.seq] + list(sweep.runs.values())
            for r in records:
                out[cell_name(r.workload, r.version, r.n_pes)] = \
                    stats_digest(r.elapsed, r.stats)
    elif workload == "trace-replay":
        run = data["run"]
        out["trace/record"] = stats_digest(run.elapsed, run.stats.as_dict(),
                                           events=data["events"])
        out["trace/export"] = _file_digest(data["path"])
        for version, replay in data["replays"].items():
            out[f"trace/replay-{version}"] = stats_digest(
                replay.elapsed, replay.stats_dict())
    return out


def check(workload: str, outcome: Outcome, pins: Dict[str, str]
          ) -> Dict[str, str]:
    """Op name -> failure text (``""`` when the op is correct).

    An op fails on an oracle mismatch, a stale read (every scheme the
    benchmark runs is coherent), a fuzz finding or crash, a replay
    conformance mismatch, or a statistics digest that differs from the
    pinned one.  A raised exception fails the whole pass upstream."""
    data = outcome.data
    failures = {name: "" for name in outcome.ops.names}

    def fail(name: str, why: str) -> None:
        failures[name] = (failures[name] + "; " if failures[name] else "") + why

    for name, digest in digests(workload, outcome).items():
        if pins.get(name) != digest:
            fail(name, f"digest {digest} != pinned {pins.get(name)}")
    if workload in GRIDS:
        for sweep in data["sweeps"]:
            for r in [sweep.seq] + list(sweep.runs.values()):
                name = cell_name(r.workload, r.version, r.n_pes)
                if not r.correct:
                    fail(name, f"oracle: {r.error}")
                if r.stale_reads:
                    fail(name, f"{r.stale_reads} stale reads")
    elif workload == "fuzz-campaign":
        for r in data["results"]:
            if not r.ok:
                fail(f"seed {r.seed}", r.describe())
    elif workload == "trace-replay":
        if data["oracle"]:
            fail("trace/record", f"oracle: {data['oracle']}")
        if data["run"].stats.stale_reads:
            fail("trace/record", "stale reads")
        if data["lines"] != data["events"]:
            fail("trace/export", f"{data['lines']} lines for "
                                 f"{data['events']} events")
        if data["conform"]:
            fail("trace/replay-ccdp",
                 "conformance: " + "; ".join(data["conform"][:3]))
        for version, replay in data["replays"].items():
            if replay.machine.stats.stale_reads:
                fail(f"trace/replay-{version}", "stale reads")
    return failures


def cold_state(observer: Observer) -> Dict[str, float]:
    """Reuse counters that must read 0 on a cold process; any nonzero
    one means a number could have been served from cached state."""
    return {"plan_hits": progcache.COUNTERS["plan_hits"],
            "plane_refs": observer.plane_refs,
            "farm_cached": observer.farm_cached,
            "farm_retries": observer.farm_retries}


def paper_err_pp(workload: str, outcome: Outcome) -> Optional[float]:
    """Mean |simulated - paper| CCDP-over-BASE improvement (pp) at the
    grid's recoverable Table 2 cells; None off the paper grid."""
    if workload != "paper-grid":
        return None
    gaps = []
    for sweep in outcome.data["sweeps"]:
        for n_pes in GRIDS[workload][1]:
            paper = paper_data.paper_improvement(sweep.workload, n_pes)
            if paper is not None:
                gaps.append(abs(sweep.improvement(n_pes) - paper))
    return sum(gaps) / len(gaps) if gaps else None


def layer_metrics(recorder: Recorder, observer: Observer, outcome: Outcome,
                  workload: str) -> Dict[str, float]:
    """Every per-layer metric of one traced pass (``bench.trace_overhead_
    frac`` is left to the caller, which also holds untraced passes)."""
    inc = recorder.inclusive
    o = observer
    run_s = inc("runtime.run")
    m = {
        "workloads.build_s": inc("workloads.build"),
        "workloads.oracle_s": inc("workloads.oracle"),
        "workloads.check_s": inc("workloads.check"),
        "coherence.transform_s": inc("coherence.transform"),
        "coherence.transforms": o.transforms,
        "verify.gen_s": inc("verify.gen"),
        "verify.safety_s": inc("verify.safety"),
        "verify.violations": o.violations,
        "runtime.run_s": run_s,
        "runtime.refs": o.run_refs,
        "runtime.ns_per_ref": 1e9 * run_s / o.run_refs if o.run_refs else 0.0,
        "runtime.batched_coverage":
            o.batch_refs / o.run_refs if o.run_refs else 0.0,
        "runtime.batch_chunks": o.batch_chunks,
        "runtime.batch_fallbacks": o.batch_fallbacks,
        "runtime.plane_coverage":
            o.plane_refs / o.run_refs if o.run_refs else 0.0,
        "runtime.plane_chunks": o.plane_chunks,
        "harness.plan_hits": progcache.COUNTERS["plan_hits"],
        "harness.compare_backends_s": inc("harness.compare_backends"),
        "harness.paper_err_pp": paper_err_pp(workload, outcome) or 0.0,
        "farm.overhead_s": inc("farm.run_farm")
            - recorder.children_of("farm.run_farm"),
        "farm.cells": o.farm_cells,
        "farm.cached": o.farm_cached,
        "farm.retries": o.farm_retries,
        "obs.record_s": inc("obs.record"),
        "obs.events": outcome.data.get("events", 0),
        "obs.export_s": inc("obs.export"),
        "obs.export_mb": outcome.data.get("export_mb", 0.0),
        "obs.reconcile_s": inc("obs.reconcile"),
        "trace.ops": o.trace_ops,
        "trace.bulk_coverage":
            o.trace_bulk_ops / o.trace_ops if o.trace_ops else 0.0,
        "trace.fallbacks": o.trace_fallbacks,
    }
    for reason in FALLBACK_REASONS:
        m[f"runtime.fallback.{reason}"] = o.reasons.get(reason, 0)
    for version in REPLAY_SCHEMES:
        m[f"trace.replay_s.{version}"] = inc(f"trace.replay.{version}")
    for version in RUN_SCHEMES:
        refs = o.refs_by_scheme[version]
        m[f"machine.ns_per_ref.{version}"] = \
            1e9 * inc(f"runtime.run.{version}") / refs if refs else 0.0
    for total in MACHINE_TOTALS:
        m[f"machine.{total}"] = o.machine[total]
    for name, _ in per_layer():
        if name.startswith("cell."):
            m[name] = inc(name[:-2])
    layers = recorder.layer_self()
    for name, _ in per_layer():
        if name.startswith("bench.self_s."):
            m[name] = layers.get(name.rsplit(".", 1)[1], 0.0)
    root = recorder.spans[0]
    m["bench.unattributed_frac"] = layers.get("bench", 0.0) / (root[2] - root[1])
    return m

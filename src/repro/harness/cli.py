"""Command-line interface: ``ccdp`` / ``python -m repro.harness``.

Subcommands
-----------
``table1`` / ``table2``
    Regenerate the paper's tables on the simulator.
``table3``
    Cross-scheme race: CCDP vs the hardware coherence baselines
    (snooping MESI bus, directory variants) — execution time, miss
    rates and interconnect traffic per scheme (``--versions``).
``report``
    Full sweep + EXPERIMENTS.md-style report (``--out`` to write a file).
``compile``
    Run the CCDP compiler on one workload and print the transformed
    program plus the pass reports.
``run``
    Execute one (workload, version, PE count) and print statistics.
``trace``
    Execute one version with machine-event tracing: per-kind counts and
    the per-epoch metrics timeline, with optional JSONL / Chrome-trace
    export (``--trace-out`` / ``--chrome-out``).
``replay``
    Trace-driven frontend: replay a recorded access stream (JSONL
    machine events or the hand-writable text format) through any
    registered scheme — per-epoch stats stream live, ``--conform``
    diffs the replayed counters against the source events, and the
    farm flags make replay cells resumable and content-addressed.
``verify``
    Static coherence-safety verification: prove the paper's coverage,
    ordering and resource rules on the transformed IR of every
    (workload, version) pair.
``fuzz``
    Differential conformance fuzzing: seeded random programs through
    every registry-fuzzed scheme × both backends × oracle × verifier
    (``--shrink`` delta-debugs failures to minimal ``.ir`` reproducers).
``info``
    List workloads and the machine configuration.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from ..coherence import CCDPConfig, ccdp_transform
from ..farm import FarmConfig, FarmError
from ..faults import FaultPlanError, parse_fault_plan, PRESETS
from ..ir.printer import format_program
from ..ir.validate import ValidationError
from ..machine.params import t3d
from ..runtime import SCHEMES, Backend, Version, run_program
from ..workloads import all_workloads, workload
from . import progcache
from .experiment import PAPER_PE_COUNTS, ExperimentRunner
from .report import generate_report
from .sweep import SweepSpec, plan_cells, sweep_grid
from .tables import (TABLE3_VERSIONS, format_table1, format_table2,
                     format_table3)

#: retries a farm-mode sweep grants each cell before quarantine when
#: ``--max-retries`` is not given explicitly
DEFAULT_FARM_RETRIES = 2


def _positive(what: str):
    """argparse type of a positive integer count, so a bad count is a
    usage error (exit 2) instead of a traceback further in."""
    def parse(text: str) -> int:
        try:
            count = int(text)
        except ValueError:
            count = 0
        if count < 1:
            raise argparse.ArgumentTypeError(
                f"{what} must be a positive integer, got {text!r}")
        return count
    return parse


#: ``--pes``: a bad count would otherwise raise inside MachineParams
_pe_count = _positive("PE count")


def _pe_counts(text: str) -> List[int]:
    """argparse type of a comma list of ``--pes`` counts."""
    counts = [_pe_count(p) for p in text.split(",") if p.strip()]
    if not counts:
        raise argparse.ArgumentTypeError("expected at least one PE count")
    return counts


def _size_args(args: argparse.Namespace) -> Dict[str, int]:
    out: Dict[str, int] = {}
    if args.n is not None:
        out["n"] = args.n
    if getattr(args, "steps", None) is not None:
        out["steps"] = args.steps
    return out


def _workload_program(parser: argparse.ArgumentParser, name: str,
                      args: argparse.Namespace):
    """``(spec, program)`` for a workload named on the command line, built
    at the ``--n``/``--steps`` sizes it takes (others are ignored).  An
    unknown name or a size its builder rejects is a usage error (exit 2),
    not a traceback.  The program is memoised, so later builds at the
    same sizes reuse it."""
    try:
        spec = workload(name.strip())
    except KeyError:
        valid = ", ".join(s.name for s in all_workloads())
        parser.error(f"unknown workload {name.strip()!r} (valid: {valid})")
    sizes = {**spec.default_args, **_size_args(args)}
    sizes = {k: v for k, v in sizes.items() if k in spec.default_args}
    try:
        return spec, progcache.get_program(spec, sizes)
    except (ValueError, ValidationError) as exc:
        parser.error(f"{spec.name}: {exc}")


def _farm_config(args: argparse.Namespace, parser: argparse.ArgumentParser,
                 jobs: int) -> Optional[FarmConfig]:
    """Build a FarmConfig when any farm flag was used, else None (legacy
    strict grid)."""
    wants = bool(getattr(args, "farm_dir", None) or args.resume
                 or args.cell_timeout is not None
                 or args.max_retries is not None
                 or args.requeue_quarantined)
    if not wants:
        return None
    if (args.resume or args.requeue_quarantined) and not args.farm_dir:
        parser.error("--resume/--requeue-quarantined require --farm-dir")
    retries = args.max_retries if args.max_retries is not None \
        else DEFAULT_FARM_RETRIES
    config = FarmConfig(jobs=max(1, jobs), farm_dir=args.farm_dir or None,
                        resume=args.resume, cell_timeout=args.cell_timeout,
                        max_retries=retries,
                        requeue_quarantined=args.requeue_quarantined)
    try:
        config.validate()
    except FarmError as exc:
        parser.error(str(exc))
    return config


def _print_failed_cells(failed, stream=sys.stderr) -> None:
    if not failed:
        return
    print(f"\n{len(failed)} cell(s) quarantined:", file=stream)
    for cell in failed:
        print(f"  {cell.describe()}", file=stream)
        print(f"    key:   {cell.key}", file=stream)
        print(f"    repro: PYTHONPATH=src {cell.repro_command()}",
              file=stream)


def _sweeps(args: argparse.Namespace, parser: argparse.ArgumentParser):
    names = args.workloads.split(",") if args.workloads else \
        [spec.name for spec in all_workloads()]
    pe_counts = args.pes
    jobs = getattr(args, "jobs", 1)
    farm = _farm_config(args, parser, jobs)
    versions = None
    if getattr(args, "versions", None):
        versions = [v.strip() for v in args.versions.split(",") if v.strip()]
        for version in versions:
            if version not in Version.ALL:
                from ..runtime import scheme_names
                parser.error(f"--versions: unknown version {version!r} "
                             f"(registered schemes: {scheme_names()})")
    sweep_kwargs = {} if versions is None else {"versions": tuple(versions)}
    specs = [SweepSpec.create(_workload_program(parser, name, args)[0].name,
                              size_args=_size_args(args),
                              pe_counts=pe_counts,
                              check=not args.no_check,
                              **sweep_kwargs)
             for name in names]
    print(f"running {len(plan_cells(specs))} cells "
          f"({', '.join(s.workload for s in specs)}) over PEs {pe_counts} "
          f"with {max(1, jobs)} process(es)"
          + (f" [farm: {args.farm_dir or 'ephemeral'}]" if farm else "")
          + " ...", file=sys.stderr)

    def progress(done: int, total: int, text: str) -> None:
        print(f"  [{done}/{total}] {text}", file=sys.stderr)

    collect: Dict[str, object] = {}
    try:
        sweeps = sweep_grid(specs, jobs=jobs, progress=progress, farm=farm,
                            collect=collect)
    except FarmError as exc:
        parser.error(str(exc))
    if "farm" in collect:
        print("  " + collect["farm"].summary(), file=sys.stderr)
    # Cache effectiveness, for this process's share of the work (workers
    # in a --jobs pool keep their own counters): program/oracle/transform
    # memoisation.
    counters = progcache.COUNTERS
    print("  cache: " + ", ".join(
        f"{kind} {counters[kind + '_hits']}h/{counters[kind + '_misses']}m"
        for kind in ("program", "oracle", "transform")),
        file=sys.stderr)
    # Report generation re-derives CCDP pass reports from runners (the
    # sweep records travel without them); runners share the sweep's
    # programs/transforms through the content-addressed cache.
    runners = {s.workload: ExperimentRunner(workload(s.workload),
                                            _size_args(args),
                                            check=not args.no_check)
               for s in specs}
    failed = [f for sweep in sweeps for _, f in sorted(sweep.failed.items())]
    return sweeps, runners, failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ccdp",
        description="CCDP reproduction harness (Lim & Yew, IPPS 1997)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workloads", default="",
                       help="comma list (default: all four)")
        p.add_argument("--pes", type=_pe_counts,
                       default=",".join(map(str, PAPER_PE_COUNTS)),
                       help="comma list of PE counts")
        p.add_argument("--n", type=int, default=None, help="problem size")
        p.add_argument("--steps", type=int, default=None, help="time steps")
        p.add_argument("--no-check", action="store_true",
                       help="skip oracle validation (faster)")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run sweep cells across N worker processes "
                            "(results are byte-identical to --jobs 1)")
        add_farm(p)

    def add_farm(p: argparse.ArgumentParser) -> None:
        g = p.add_argument_group(
            "farm", "journaled resumable execution (repro.farm): any of "
                    "these flags routes the grid through the supervised "
                    "work queue — failing cells are retried with seeded "
                    "backoff and quarantined instead of aborting")
        g.add_argument("--farm-dir", default="", metavar="DIR",
                       help="journal + result-store directory; finished "
                            "cells dedup across runs sharing it, and a "
                            "killed run resumes from its journal")
        g.add_argument("--resume", action="store_true",
                       help="resume from an existing journal in --farm-dir "
                            "(error if none); only unfinished cells run")
        g.add_argument("--cell-timeout", type=float, default=None,
                       metavar="SEC",
                       help="per-cell wall-clock limit; a cell over it is "
                            "killed and retried (forces worker processes)")
        g.add_argument("--max-retries", type=int, default=None, metavar="N",
                       help="retries per cell before quarantine "
                            f"(default {DEFAULT_FARM_RETRIES} in farm mode)")
        g.add_argument("--requeue-quarantined", action="store_true",
                       help="clear standing quarantines in the journal and "
                            "re-execute those cells")

    for name in ("table1", "table2", "table3", "report"):
        p = sub.add_parser(name)
        add_common(p)
        if name == "report":
            p.add_argument("--out", default="", help="write report to file")
        if name == "table3":
            p.description = ("cross-scheme race: CCDP vs the hardware "
                             "coherence baselines (Table 3)")
            p.add_argument("--versions",
                           default=",".join(TABLE3_VERSIONS),
                           help="comma list of schemes to race "
                                f"(default: {','.join(TABLE3_VERSIONS)})")

    p = sub.add_parser("compile", help="show the CCDP transformation")
    p.add_argument("workload")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--pes", type=_pe_count, default="8")
    p.add_argument("--program", action="store_true",
                   help="print the transformed program text")

    p = sub.add_parser("run", help="run one version")
    p.add_argument("workload")
    p.add_argument("--version", default=Version.CCDP,
                   choices=list(Version.ALL))
    p.add_argument("--pes", type=_pe_count, default="8")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--no-check", action="store_true")
    p.add_argument("--backend", default=Backend.REFERENCE,
                   choices=list(Backend.ALL),
                   help="execution backend (batched = bulk NumPy traces, "
                        "bit-exact vs reference)")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="fault-injection plan: a preset "
                        f"({', '.join(sorted(PRESETS))}) or "
                        "'name[=rate][:key=value ...],...' e.g. "
                        "'drop=0.3,jitter=0.5:max_extra=40' (see repro.faults)")
    p.add_argument("--fault-seed", type=int, default=0, metavar="N",
                   help="seed for the fault plan's RNG streams (>= 0)")
    p.add_argument("--oracle", action="store_true",
                   help="arm the shadow coherence oracle (raises "
                        "StaleReadViolation on any unflagged stale value)")

    p = sub.add_parser("trace", help="run one version with machine-event "
                                     "tracing and a metrics timeline")
    p.add_argument("workload")
    p.add_argument("--version", default=Version.CCDP,
                   choices=list(Version.ALL))
    p.add_argument("--pes", type=_pe_count, default="4")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--backend", default=Backend.REFERENCE,
                   choices=list(Backend.ALL),
                   help="both backends emit identical event streams")
    p.add_argument("--trace-out", default="", metavar="PATH",
                   help="write recorded events as JSONL")
    p.add_argument("--chrome-out", default="", metavar="PATH",
                   help="write a Chrome trace (load in chrome://tracing "
                        "or https://ui.perfetto.dev)")
    p.add_argument("--trace-events", default="", metavar="KINDS",
                   help="comma allow-list of event kinds to record "
                        "(others are counted but not recorded)")
    p.add_argument("--trace-sample", type=int, default=None, metavar="K",
                   help="record 1 of every K events per kind "
                        "(0 = count only, no tuples)")
    p.add_argument("--trace-capacity", type=int, default=None, metavar="N",
                   help="ring-buffer size: keep only the last N events "
                        "(counters stay exact)")

    p = sub.add_parser("replay", help="replay a recorded trace through "
                                      "any coherence scheme")
    p.add_argument("--trace", required=True, metavar="FILE",
                   help="JSONL event trace (ccdp trace --trace-out) or "
                        "text access stream (see repro.trace.TEXT_GRAMMAR)")
    p.add_argument("--format", default="auto",
                   choices=["auto", "jsonl", "text"],
                   help="input format (auto = by file extension)")
    p.add_argument("--version", default=Version.CCDP,
                   choices=list(Version.ALL),
                   help="scheme to replay the trace under")
    p.add_argument("--versions", default="", metavar="LIST",
                   help="comma list of schemes (overrides --version; "
                        "one cell per scheme)")
    p.add_argument("--pes", type=_pe_count, default=None, metavar="N",
                   help="PE count (default: the trace's own geometry)")
    p.add_argument("--backend", default=Backend.REFERENCE,
                   choices=list(Backend.ALL),
                   help="replay path (batched = exact bulk scans, "
                        "bit-exact vs reference)")
    p.add_argument("--oracle", action="store_true",
                   help="arm the shadow coherence oracle during replay")
    p.add_argument("--conform", action="store_true",
                   help="fold the source events and diff every counter "
                        "against the replayed machine (JSONL traces "
                        "replayed under their source scheme)")
    p.add_argument("--workload", default="",
                   help="workload whose array declarations the trace "
                        "was recorded from (JSONL traces)")
    p.add_argument("--n", type=int, default=None, help="problem size")
    p.add_argument("--steps", type=int, default=None, help="time steps")
    p.add_argument("--ir", default="", metavar="PATH",
                   help="DSL .ir file supplying the array declarations "
                        "(JSONL traces; alternative to --workload)")
    p.add_argument("--cache-bytes", type=int, default=None, metavar="B",
                   help="per-PE cache size (default: the scaled "
                        "experiment cache)")
    p.add_argument("--chunk-ops", type=int, default=None, metavar="N",
                   help="ops per streamed chunk (bounds resident memory)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="farm worker processes (useful with --versions)")
    add_farm(p)

    p = sub.add_parser("compile-file",
                       help="compile a DSL source file with CCDP")
    p.add_argument("path")
    p.add_argument("--pes", type=_pe_count, default="8")
    p.add_argument("--run", action="store_true",
                   help="also execute SEQ/BASE/CCDP and compare")
    p.add_argument("--out", default="", help="write transformed DSL to file")

    p = sub.add_parser("profile",
                       help="cache-behaviour profile via the vectorised "
                            "trace evaluator")
    p.add_argument("workload")
    p.add_argument("--version", default=Version.CCDP, choices=list(Version.ALL))
    p.add_argument("--pes", type=_pe_count, default="4")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--pe", type=int, default=0, help="which PE's trace")

    p = sub.add_parser("verify", help="static coherence-safety verification "
                                      "of the transformed IR")
    p.add_argument("--workloads", default="",
                   help="comma list (default: all four)")
    p.add_argument("--versions", default=",".join(Version.ALL),
                   help="comma list of versions to verify")
    p.add_argument("--pes", type=_pe_count, default="8",
                   help="PE count for the machine model")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)

    p = sub.add_parser("fuzz", help="differential conformance fuzzing "
                                    "(versions x backends x oracle x verifier)")
    p.add_argument("--seeds", type=_positive("seed count"), default=25,
                   metavar="N",
                   help="number of generator seeds to run")
    p.add_argument("--start", type=int, default=0, metavar="S",
                   help="first seed (cells run seeds S .. S+N-1)")
    p.add_argument("--pes", type=_pe_count, default="4",
                   help="PE count for the parallel versions (seq runs on 1)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="fan cells out across N worker processes")
    add_farm(p)
    p.add_argument("--shrink", action="store_true",
                   help="delta-debug failing seeds to minimal reproducers")
    p.add_argument("--out", default="", metavar="DIR",
                   help="directory for failing-seed .ir repro files "
                        "(default: current directory)")

    sub.add_parser("info", help="list workloads and machine defaults")

    args = parser.parse_args(argv)

    if args.command == "info":
        params = t3d(8)
        print("workloads:")
        for spec in all_workloads():
            print(f"  {spec.name:8s} {spec.suite:18s} default={spec.default_args} "
                  f"paper={spec.paper_args} — {spec.description}")
        print(f"\nmachine defaults (T3D-class): cache={params.cache_bytes}B "
              f"direct-mapped, line={params.line_bytes}B, "
              f"queue={params.prefetch_queue_slots} slots, "
              f"local={params.local_mem}cyc, remote~{params.remote_base}cyc")
        return 0

    if args.command in ("table1", "table2", "table3", "report"):
        sweeps, runners, failed = _sweeps(args, parser)
        if args.command == "table1":
            print(format_table1(sweeps))
        elif args.command == "table2":
            print(format_table2(sweeps))
        elif args.command == "table3":
            versions = [v.strip() for v in args.versions.split(",")
                        if v.strip()]
            print(format_table3(sweeps, versions))
        else:
            text = generate_report(sweeps, runners, failed_cells=failed)
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text + "\n")
                print(f"wrote {args.out}", file=sys.stderr)
            else:
                print(text)
        _print_failed_cells(failed)
        bad = [s.workload for s in sweeps if not s.all_correct()]
        if bad:
            print(f"CORRECTNESS FAILURES: {bad}", file=sys.stderr)
            return 1
        return 0

    if args.command == "compile":
        spec, program = _workload_program(parser, args.workload, args)
        config = CCDPConfig(machine=t3d(args.pes))
        transformed, report = ccdp_transform(program, config)
        print(report.summary())
        for entry in report.schedule.entries:
            print(f"  {entry.case:28s} {entry.lsc.describe():24s} "
                  f"{entry.techniques_used()}")
        if args.program:
            print()
            print(format_program(transformed))
        return 0

    if args.command == "compile-file":
        from ..ir.dsl import parse_program
        from .experiment import SCALED_CACHE_BYTES

        with open(args.path) as fh:
            program = parse_program(fh.read())
        params = t3d(args.pes, cache_bytes=SCALED_CACHE_BYTES)
        transformed, report = ccdp_transform(program, CCDPConfig(machine=params))
        print(report.summary())
        text = format_program(transformed)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            print()
            print(text)
        if args.run:
            seq = run_program(program, t3d(1, cache_bytes=SCALED_CACHE_BYTES),
                              Version.SEQ)
            base = run_program(program, params, Version.BASE)
            ccdp = run_program(transformed, params, Version.CCDP,
                               on_stale="raise")
            print(f"SEQ : {seq.elapsed:>12,.0f} cycles")
            print(f"BASE: {base.elapsed:>12,.0f} cycles "
                  f"(speedup {seq.elapsed / base.elapsed:.2f}x)")
            print(f"CCDP: {ccdp.elapsed:>12,.0f} cycles "
                  f"(speedup {seq.elapsed / ccdp.elapsed:.2f}x, "
                  f"{100 * (base.elapsed - ccdp.elapsed) / base.elapsed:.1f}% "
                  f"over BASE, {ccdp.stats.stale_reads} stale reads)")
        return 0

    if args.command == "profile":
        import numpy as np

        from ..machine.batchops import OUT_HIT, OUT_MISS, classify_events
        from ..runtime import ExecutionConfig, Interpreter
        from .experiment import SCALED_CACHE_BYTES

        n_pes = args.pes
        if not 0 <= args.pe < n_pes:
            parser.error(f"--pe {args.pe} is out of range: --pes {n_pes} "
                         f"has PEs 0..{n_pes - 1}")
        spec, program = _workload_program(parser, args.workload, args)
        params = t3d(n_pes, cache_bytes=SCALED_CACHE_BYTES)
        if SCHEMES[args.version].transformed:
            program, _ = ccdp_transform(program, CCDPConfig(machine=params))
        interp = Interpreter(program, params,
                             ExecutionConfig.for_version(args.version),
                             trace_reads=True)
        interp.run()
        trace = np.array(interp.machine.read_trace[args.pe], dtype=np.int64)
        print(f"{spec.name}/{args.version}: PE {args.pe} issued "
              f"{len(trace):,} cacheable reads")
        lines = trace // params.line_words

        def cold_pass(n_lines):
            """Per-read outcomes and hit rate against a cold cache."""
            outcomes = classify_events(lines, n_lines).outcomes
            hits = int(np.count_nonzero(outcomes == OUT_HIT))
            return outcomes, (hits / len(lines) if len(lines) else 0.0)

        outcomes, hit_rate = cold_pass(params.n_lines)
        print(f"hit rate (cold, this trace): {hit_rate:.3f}")
        print("\nmiss rate vs cache size:")
        for size in (512, 1024, 2048, 8192, 65536):
            rate = 1.0 - cold_pass(params.with_(cache_bytes=size).n_lines)[1]
            bar = "#" * int(rate * 50)
            print(f"  {size:>6d} B  {rate:6.3f}  {bar}")
        per_set = np.bincount(lines[outcomes == OUT_MISS] % params.n_lines,
                              minlength=params.n_lines)
        print("\nmost-conflicted cache sets (set: misses):")
        for set_i in np.argsort(per_set)[::-1][:5]:
            print(f"  {set_i:>4d}: {per_set[set_i]}")
        return 0

    if args.command == "trace":
        from ..obs import Tracer, write_chrome_trace, write_jsonl
        from .experiment import SCALED_CACHE_BYTES
        from .report import timeline_table

        spec, program = _workload_program(parser, args.workload, args)
        n_pes = args.pes
        params = t3d(n_pes, cache_bytes=SCALED_CACHE_BYTES)
        if SCHEMES[args.version].transformed:
            program, _ = ccdp_transform(program, CCDPConfig(machine=params))
        kinds = [k.strip() for k in args.trace_events.split(",")
                 if k.strip()] or None
        try:
            tracer = Tracer(capacity=args.trace_capacity,
                            sample=args.trace_sample, kinds=kinds)
        except ValueError as exc:
            parser.error(str(exc))
        result = run_program(program, params, args.version,
                             backend=args.backend, tracer=tracer)
        print(f"{spec.name}/{args.version} on {n_pes} PE(s) "
              f"[{args.backend}]: {result.elapsed:,.0f} cycles")
        print(f"events: {tracer.total:,} emitted, {tracer.kept:,} recorded"
              + (f" ({tracer.evicted:,} since evicted)"
                 if tracer.evicted else ""))
        for kind in sorted(tracer.counts):
            print(f"  {kind:16s} {tracer.counts[kind]:>10,}")
        if tracer.timeline:
            print()
            print(timeline_table(tracer.timeline))
        if args.trace_out:
            n = write_jsonl(tracer.events, args.trace_out)
            print(f"wrote {n} events to {args.trace_out}", file=sys.stderr)
        if args.chrome_out:
            write_chrome_trace(tracer.timeline, args.chrome_out,
                               events=tracer.events)
            print(f"wrote Chrome trace to {args.chrome_out}",
                  file=sys.stderr)
        return 0

    if args.command == "verify":
        from ..verify import verify_program
        from .experiment import SCALED_CACHE_BYTES

        names = args.workloads.split(",") if args.workloads else \
            [spec.name for spec in all_workloads()]
        versions = [v.strip() for v in args.versions.split(",") if v.strip()]
        for version in versions:
            if version not in Version.ALL:
                from ..runtime import scheme_names
                parser.error(f"--versions: unknown version {version!r} "
                             f"(registered schemes: {scheme_names()})")
        config = CCDPConfig(machine=t3d(args.pes,
                                        cache_bytes=SCALED_CACHE_BYTES))
        built = [_workload_program(parser, name, args) for name in names]
        bad = 0
        for spec, program in built:
            for version in versions:
                report = verify_program(program, version, config=config)
                print(f"{spec.name}/{version}: {report.summary()}")
                for violation in report.violations:
                    print(f"  {violation.describe()}")
                    bad += 1
        if bad:
            print(f"\n{bad} violation(s)", file=sys.stderr)
            return 1
        print("\nall clean", file=sys.stderr)
        return 0

    if args.command == "fuzz":
        import os

        from ..verify import fuzz_seeds, shrink_failure

        n_pes = args.pes
        farm = _farm_config(args, parser, args.jobs)
        seeds = list(range(args.start, args.start + args.seeds))
        print(f"fuzzing {len(seeds)} seed(s) [{seeds[0]}..{seeds[-1]}] "
              f"on {n_pes} PE(s) with {max(1, args.jobs)} process(es)"
              + (f" [farm: {args.farm_dir or 'ephemeral'}]" if farm else "")
              + " ...", file=sys.stderr)

        def progress(done: int, total: int, result) -> None:
            print(f"  [{done}/{total}] {result.describe()}", file=sys.stderr)

        collect: Dict[str, object] = {}
        try:
            results = fuzz_seeds(seeds, n_pes=n_pes, jobs=args.jobs,
                                 progress=progress, farm=farm,
                                 collect=collect)
        except FarmError as exc:
            parser.error(str(exc))
        if "farm" in collect:
            print("  " + collect["farm"].summary(), file=sys.stderr)
        failing = [r for r in results if not r.ok]
        clean = sum(r.naive_stale == 0 for r in results)
        print(f"\n{len(results) - len(failing)}/{len(results)} seeds ok "
              f"({len(results) - clean} with naive-version stale reads)",
              file=sys.stderr)
        for result in failing:
            print(f"\n--- {result.describe()} ---")
            if result.choices:
                print(f"  {result.choices}")
            for failure in result.failures:
                print(f"  {failure}")
            if result.error:
                print(result.error.rstrip())
            if args.shrink and not result.error:
                small, text = shrink_failure(result.seed, n_pes=n_pes)
                os.makedirs(args.out or ".", exist_ok=True)
                path = os.path.join(args.out or ".",
                                    f"fuzz-seed-{result.seed}.ir")
                with open(path, "w") as fh:
                    fh.write(text)
                print(f"  shrunk reproducer -> {path} "
                      f"({len(text.splitlines())} lines)")
        return 1 if failing else 0

    if args.command == "replay":
        from ..machine.oracle import StaleReadViolation
        from ..trace import DEFAULT_CHUNK_OPS, TraceError, sniff_format
        from ..trace.cells import (build_program, replay_failure,
                                   replay_key, replay_record,
                                   run_replay_cell)
        from .experiment import SCALED_CACHE_BYTES

        versions = [v.strip() for v in args.versions.split(",")
                    if v.strip()] or [args.version]
        for version in versions:
            if version not in Version.ALL:
                from ..runtime import scheme_names
                parser.error(f"--versions: unknown version {version!r} "
                             f"(registered schemes: {scheme_names()})")
        fmt = args.format if args.format != "auto" \
            else sniff_format(args.trace)
        if fmt == "text" and args.conform:
            parser.error("--conform needs a JSONL trace (text traces "
                         "carry no source counters to diff against)")
        if fmt == "text" and (args.workload or args.ir):
            parser.error("--workload/--ir apply to JSONL traces; text "
                         "traces are self-describing")
        cache_bytes = args.cache_bytes if args.cache_bytes is not None \
            else SCALED_CACHE_BYTES
        base = {"trace": args.trace, "format": fmt, "pes": args.pes,
                "backend": args.backend, "oracle": args.oracle,
                "conform": args.conform, "cache_bytes": cache_bytes,
                "chunk_ops": args.chunk_ops or DEFAULT_CHUNK_OPS,
                "workload": args.workload, "sizes": _size_args(args),
                "ir": args.ir}
        payloads = [dict(base, version=version) for version in versions]

        def show(record) -> bool:
            print(f"{record['trace']} -> {record['version']} on "
                  f"{record['pes']} PE(s) [{record['backend']}]: "
                  f"{record['elapsed']:,.0f} cycles")
            stats = record["stats"]
            print(f"  reads={stats['reads']:.0f} "
                  f"writes={stats['writes']:.0f} "
                  f"hits={stats['cache_hits']:.0f} "
                  f"misses={stats['cache_misses']:.0f} "
                  f"prefetches={stats['prefetch_issued']:.0f} "
                  f"stale_reads={stats['stale_reads']:.0f} "
                  f"epochs={stats['epochs']:.0f}")
            c = record["counters"]
            if record["backend"] != Backend.REFERENCE:
                share = c["bulk_ops"] / c["ops"] if c["ops"] else 0.0
                why = ", ".join(f"{reason}={n:,}" for reason, n
                                in sorted(c.get("reasons", {}).items()))
                print(f"  bulk: {c['bulk_ops']:,}/{c['ops']:,} ops "
                      f"({share:.1%}) in {c['bulk_runs']} run(s), "
                      f"{c['fallbacks']} fallback(s); reference path: "
                      f"{why or 'none'}")
            if record["oracle"]:
                print(f"  {record['oracle']}")
            if record["conform"] is not None:
                if record["conform"]:
                    print(f"  CONFORMANCE: {len(record['conform'])} "
                          f"counter mismatch(es) vs source events:")
                    for line in record["conform"]:
                        print(f"    {line}")
                    return False
                print("  conformance: every folded counter matches the "
                      "source events")
            return True

        farm = _farm_config(args, parser, args.jobs)
        try:
            if farm is not None:
                from ..farm import Job, run_farm
                jobs_list = [Job(index=i, key=replay_key(payload),
                                 payload=payload,
                                 desc=f"replay/{payload['version']}")
                             for i, payload in enumerate(payloads)]

                def progress(done, total, outcome):
                    print(f"  [{done}/{total}] {outcome.describe()}",
                          file=sys.stderr)

                result = run_farm(run_replay_cell, jobs_list, farm,
                                  failure_of=replay_failure,
                                  progress=progress)
                print("  " + result.summary(), file=sys.stderr)
                ok = True
                for outcome in result.outcomes:
                    if outcome.quarantined or outcome.result is None:
                        print(f"  {outcome.describe()}", file=sys.stderr)
                        ok = False
                    else:
                        ok = show(outcome.result) and ok
                return 0 if ok else 1

            def epoch_cb(row):
                print(f"  epoch {row['index']:>3} "
                      f"{row['label']:<24.24s} "
                      f"reads={row['reads']:>9,} "
                      f"hits={row['hits']:>9,} "
                      f"misses={row['misses']:>8,} "
                      f"stale={row['stale']:>5,} "
                      f"clock={row['clock']:>14,.0f}",
                      file=sys.stderr)

            program = build_program(payloads[0])
            ok = True
            for payload in payloads:
                print(f"replaying {args.trace} under "
                      f"{payload['version']} ...", file=sys.stderr)
                ok = show(replay_record(program, payload, epoch_cb)) and ok
            return 0 if ok else 1
        except TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except StaleReadViolation as exc:
            print(f"coherence violation: {exc}", file=sys.stderr)
            return 1
        except FarmError as exc:
            parser.error(str(exc))

    if args.command == "run":
        if args.fault_seed < 0:
            parser.error(f"--fault-seed must be >= 0, got {args.fault_seed}")
        try:
            fault_plan = parse_fault_plan(args.faults, seed=args.fault_seed)
        except FaultPlanError as exc:
            parser.error(f"--faults: {exc}")
        spec, _ = _workload_program(parser, args.workload, args)
        runner = ExperimentRunner(spec, _size_args(args), check=not args.no_check)
        record = runner.run_version(args.version, args.pes,
                                    backend=args.backend,
                                    fault_plan=fault_plan,
                                    oracle=args.oracle)
        print(record.describe())
        for key in ("cache_hits", "cache_misses", "prefetch_issued",
                    "pf_dropped", "pf_drop_bypass", "vector_prefetches",
                    "bypass_reads", "stale_reads"):
            print(f"  {key:18s} {record.stats.get(key, 0):.0f}")
        print(f"  backend            {record.backend}")
        if record.backend != Backend.REFERENCE:
            print(f"  batch_chunks       {record.batch_chunks}")
            print(f"  batch_fallbacks    {record.batch_fallbacks}")
            print(f"  fault_fallbacks    {record.fault_fallbacks}")
            print(f"  batched_coverage   {record.batched_coverage:.3f}")
            for reason, count in sorted(record.fallback_reasons.items()):
                print(f"    {reason:16s} {count}")
        if record.fault_stats is not None:
            print("  faults:")
            for key, value in record.fault_stats.items():
                print(f"    {key:18s} {value:.0f}")
        if record.oracle_summary is not None:
            print(f"  {record.oracle_summary}")
        return 0 if record.correct else 1

    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

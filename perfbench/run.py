"""Cold-process benchmark of the CCDP simulator.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 25 --trace 0

Workloads: paper-grid, scheme-race, fuzz-campaign, trace-replay (see
README.md here for why each one and which layer it stresses).  Every
pass is a fresh Python process (``cold_pass.py``) that imports the
simulator, runs the workload once through the public API on one thread
with ``jobs=1``, and checks every output.  Passes repeat while
``--seconds`` allows another one (at least one; with ``--trace 1`` at
least one untraced and one traced, alternating); the time left over
goes to import-only processes that time set-up (at least
``SETUP_PROBES``).

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics under
``--trace 0``, the per-layer metrics under ``--trace 1``.  Every time
is in reference seconds: as measured, scaled by the host-speed probes
of the same process (see ``hostspeed.py``).  Workload times are built
from each op's median over the passes (see :func:`op_medians`); ``setup_s``
is the median over the import-only processes and every pass.  Exits
non-zero, printing no result, when a pass cannot run at all (for
instance without ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, WORKLOADS, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

#: least import-only processes per run, on top of one setup sample per
#: pass; a run keeps ``SETUP_RESERVE_S`` of its time for them
SETUP_PROBES = 3
SETUP_RESERVE_S = 2.5

#: hard ceiling on one run (the contract allows 180 s)
RUN_LIMIT_S = 170.0


class PassError(RuntimeError):
    pass


def spawn(args, timeout: float, workdir: Path) -> dict:
    """Run one ``cold_pass.py`` process; return its JSON result."""
    env = dict(os.environ, TMPDIR=str(workdir), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "cold_pass.py"), *args, "--spawned-at"]
    cmd.append(repr(time.perf_counter()))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise PassError(f"pass exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not out.strip():
        raise PassError(f"pass exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               scale: str):
    """(passes, setup samples) for one run."""
    start = time.perf_counter()
    budget = min(seconds, RUN_LIMIT_S)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        kinds = [False, True] if trace else [False]
        durations = {kind: [] for kind in kinds}
        passes = []
        while True:
            traced = kinds[len(passes) % len(kinds)]
            pass_dir = run_dir / f"pass-{len(passes)}"
            pass_dir.mkdir()
            args = ["--workload", workload, "--seed", str(seed),
                    "--trace", str(int(traced)), "--scale", scale,
                    "--workdir", str(pass_dir)]
            if traced:
                args += ["--spans-out",
                         str(WORK / f"spans-{workload}-seed{seed}.jsonl")]
            began = time.perf_counter()
            result = spawn(args, RUN_LIMIT_S - (began - start), pass_dir)
            durations[traced].append(time.perf_counter() - began)
            shutil.rmtree(pass_dir, ignore_errors=True)
            passes.append(result)
            if len(passes) < len(kinds):
                continue
            upcoming = kinds[len(passes) % len(kinds)]
            elapsed = time.perf_counter() - start
            estimate = statistics.median(durations[upcoming])
            if elapsed + estimate + SETUP_RESERVE_S > budget:
                break
        setups = [p["setup_s"] for p in passes]
        each = SETUP_RESERVE_S / SETUP_PROBES
        for probe in range(int(RUN_LIMIT_S / each)):
            if probe >= SETUP_PROBES and \
                    time.perf_counter() - start + each > budget:
                break
            setups.append(spawn(["--setup-only"], RUN_LIMIT_S, run_dir)
                          ["setup_s"])
        return passes, setups
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def summarize(passes, setups, trace: bool):
    """(metrics, units, problems, attempted, failed)."""
    med = statistics.median
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op[2]]
    problems = [f"{op[0]}: {op[2]}" for op in failed]
    for p in passes:
        for name, value in p["cold"].items():
            if value:
                problems.append(f"cold-state guard: {name} = {value}")
    if len({p["refs"] for p in passes}) > 1:
        problems.append("simulated refs differ between passes")

    if trace:
        units = dict(per_layer())
        # A traced pass that raised has no layer figures (and failed).
        layered = [p["layers"] for p in traced if "layers" in p]
        metrics = {name: med(m[name] for m in layered) if layered else 0.0
                   for name in units if name != "bench.trace_overhead_frac"}
        metrics["bench.trace_overhead_frac"] = \
            sum(op_medians(traced).values()) \
            / sum(op_medians(plain).values()) - 1
        return metrics, units, problems, len(ops), len(failed)

    op_s = op_medians(plain)
    wall_s = sum(op_s.values())
    metrics = {
        "setup_s": med(setups),
        "wall_s": wall_s,
        "refs_per_s": plain[0]["refs"] / wall_s,
        "slowest_op_s": max(op_s.values()),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
    }
    return metrics, dict(END_TO_END), problems, len(ops), len(failed)


def op_medians(passes) -> dict:
    """Op name -> its median time over ``passes``, in reference seconds.

    The host-speed probes take the drifts of a shared host (other
    tenants' load, over seconds to minutes) out of each op; the median
    over passes evens out what jitter is left.  A fastest-pass floor
    would instead pick the op whose nearby probes happened to run slow."""
    times: dict = {}
    for p in passes:
        for name, seconds, _ in p["ops"]:
            times.setdefault(name, []).append(seconds)
    return {name: statistics.median(s) for name, s in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: one small kernel, for the self-tests")
    args = parser.parse_args(argv)

    try:
        passes, setups = run_passes(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.scale)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, units, problems, attempted, failed = summarize(
        passes, setups, bool(args.trace))

    n_traced = sum(p["traced"] for p in passes)
    print(f"{args.workload} seed {args.seed}: {len(passes) - n_traced} cold "
          f"pass(es), {n_traced} traced, {len(setups)} setup samples")
    for i, p in enumerate(passes):
        print(f"  pass {i}{' (traced)' if p['traced'] else ''}: "
              f"{p['wall_s']:.3f} s measured, host speed {p['speed']:.3f} "
              f"({p['probes']} probes)")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':34s} {failed / attempted:14.6g} "
          f"({failed}/{attempted} ops failed)")
    err_pp = [p["paper_err_pp"] for p in passes
              if p.get("paper_err_pp") is not None]
    if err_pp:
        print(f"  {'paper_err_pp':34s} {err_pp[0]:14.6g} pp "
              f"(|sim - paper| CCDP-over-BASE, Table 2 cells)")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

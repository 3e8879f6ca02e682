"""One cold pass of a benchmark workload, in a fresh process.

``run.py`` spawns this once per pass:

    python3 perfbench/cold_pass.py --workload paper-grid --seed 1 \\
        --trace 0 --scale full --workdir DIR --spawned-at T

and reads one JSON object from the last line of its standard output.
``--spawned-at`` is the parent's ``time.perf_counter()`` taken just
before the spawn (CLOCK_MONOTONIC on Linux, shared by every process),
so ``setup_s`` spans interpreter start-up plus the import of every
``repro`` module.  ``--setup-only`` stops there.  Every time printed
is in reference seconds (see ``hostspeed.py``): set-up is scaled by
probes taken right after it, each op by the probes around it, taken
while the pass works.  ``wall_s`` (as measured) and ``speed``
(reference seconds per measured second) are for the log.

A pass never reuses state: the process, the progcache, the plan cache
and the farm dir (under ``--workdir``) all start empty.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: host-speed probes right after import and after the workload
PROBES_AT_ENDS = 5


def import_simulator() -> None:
    """Import every ``repro`` module (the CLI entry module excepted)."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--spans-out", default="")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_simulator()
    setup_measured_s = time.perf_counter() - args.spawned_at

    import hostspeed
    sampler = hostspeed.Sampler()
    sampler.probe(PROBES_AT_ENDS)
    setup_s = setup_measured_s * sampler.factor()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import spans
    import suite

    scale = suite.SCALES[args.scale]
    pins = suite.load_pins(scale)
    observer = suite.Observer()
    recorder = spans.Recorder() if args.trace else None
    suite.install(observer, recorder)

    error = ""
    outcome = None
    root = recorder.begin("bench.pass") if recorder is not None else None
    if recorder is None:
        # A traced pass takes no probes inside its spans: they would be
        # charged to whichever layer is running.
        sampler.start()
    start = time.perf_counter()
    try:
        outcome = suite.run_workload(args.workload, scale, args.seed,
                                     Path(args.workdir), recorder=recorder)
    except Exception:
        error = traceback.format_exc()
    end = time.perf_counter()
    sampler.stop()
    if recorder is not None:
        recorder.end(root)
    sampler.probe(PROBES_AT_ENDS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"workload": args.workload, "traced": bool(args.trace),
              "setup_s": setup_s, "wall_s": end - start, "speed": sampler.factor(),
              "probes": len(sampler.samples), "peak_rss_mb": peak_rss_mb,
              "refs": observer.refs, "cold": suite.cold_state(observer),
              "ops": []}
    if outcome is None:
        # Nothing the pass produced can be checked: it counts as one
        # failed op.
        print(error, file=sys.stderr)
        result["ops"] = [["exception", sampler.reference_seconds(start, end),
                          error.strip().splitlines()[-1]]]
    else:
        failures = suite.check(args.workload, outcome, pins)
        result["ops"] = [[name, sampler.reference_seconds(*bounds),
                          failures[name]] for name, bounds
                         in zip(outcome.ops.names, outcome.ops.bounds)]
        result["paper_err_pp"] = suite.paper_err_pp(args.workload, outcome)
        if recorder is not None:
            result["layers"] = suite.layer_metrics(recorder, observer,
                                                   outcome, args.workload)
            if args.spans_out:
                recorder.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Rewrite ``pinned.json`` from the reference backend.

    python3 perfbench/pin.py

Runs every grid cell and the trace record/export/replay steps, at both
scales, on the reference interpreter (ground truth) and stores the
digest of each one's simulated statistics.  The benchmark runs the
batched backend and fails any op whose digest differs, so rerun this
only for a change that is meant to move simulated results.
"""

from __future__ import annotations

import json
import shutil
import sys

from cold_pass import ROOT, import_simulator


def main() -> int:
    import_simulator()
    import suite
    from repro.harness import progcache

    pins = {}
    workdir = ROOT / ".perfbench-work" / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for scale in suite.SCALES.values():
            pins[scale.name] = {}
            for workload in ("paper-grid", "scheme-race", "trace-replay"):
                progcache.clear()
                outcome = suite.run_workload(workload, scale, 0, workdir,
                                             backend="reference")
                pins[scale.name].update(suite.digests(workload, outcome))
                print(f"{scale.name}/{workload}: "
                      f"{len(outcome.ops.names)} ops", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(suite.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

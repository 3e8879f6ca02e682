"""Self-tests of the benchmark at toy size: one small kernel, two fuzz
seeds and a tiny trace.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from cold_pass import ROOT, import_simulator  # noqa: E402

import_simulator()

import metrics  # noqa: E402
import suite  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_lists_match_benchmark_json():
    listed = lambda key: [(m["name"], m["unit"]) for m in BENCHMARK[key]]
    assert listed("end_to_end") == metrics.END_TO_END
    assert listed("per_layer") == metrics.per_layer()
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(metrics.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_printed_metrics_match_benchmark_json(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--scale", "toy"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}


@pytest.mark.parametrize("workload, op", [("paper-grid", "mxm/ccdp@4"),
                                          ("trace-replay",
                                           "trace/replay-mesi")])
def test_corrupted_pin_fails_only_its_op(workload, op, tmp_path):
    pins = suite.load_pins(suite.TOY)
    outcome = suite.run_workload(workload, suite.TOY, 0, tmp_path)
    assert not any(suite.check(workload, outcome, pins).values())
    failures = suite.check(workload, outcome, dict(pins, **{op: "0" * 20}))
    assert "digest" in failures[op]
    assert not [name for name, why in failures.items() if why and name != op]


def test_naive_cell_fails_the_coherent_check(tmp_path, monkeypatch):
    # Small TOMCATV is a kernel that reads stale data without coherence.
    scale = suite.Scale("naive", kernels=("tomcatv",), size_args=(("n", 8),))
    monkeypatch.setitem(suite.GRIDS, "naive-grid", (("naive",), (4,)))
    outcome = suite.run_grid("naive-grid", scale, 0, tmp_path)
    # Pin the run's own digests so only the coherence gates can trip.
    failures = suite.check("naive-grid", outcome,
                           suite.digests("naive-grid", outcome))
    assert failures["tomcatv/seq@1"] == ""
    assert "stale reads" in failures["tomcatv/naive@4"]

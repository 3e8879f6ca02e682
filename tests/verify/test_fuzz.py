"""The differential fuzz harness itself: cell anatomy, pool fan-out
determinism, and crash containment."""

import pytest

from repro.verify import fuzz
from repro.verify.fuzz import FuzzResult, fuzz_seeds, run_fuzz_cell


def test_single_cell_runs_the_whole_battery():
    result = run_fuzz_cell((0, 4))
    assert result.ok, result.failures
    assert result.seed == 0
    assert result.choices.startswith("seed 0")
    assert result.trace_events > 0
    assert "ok" in result.describe()


def test_naive_stale_hits_are_observed():
    # seed 5 is known to make the naive version consume stale values
    # (pinned by the corpus); the cell reports but does not fail on it
    result = run_fuzz_cell((5, 4))
    assert result.ok, result.failures
    assert result.naive_stale > 0


def test_parallel_results_match_serial():
    seeds = [0, 1, 2]
    serial = fuzz_seeds(seeds, jobs=1)
    parallel = fuzz_seeds(seeds, jobs=2)
    assert serial == parallel
    assert [r.seed for r in serial] == seeds


def test_progress_callback_sees_every_cell():
    seen = []
    fuzz_seeds([0, 1], jobs=1,
               progress=lambda done, total, r: seen.append((done, total,
                                                            r.seed)))
    assert seen == [(1, 2, 0), (2, 2, 1)]


def test_crashing_cell_ships_its_traceback(monkeypatch):
    def boom(seed):
        raise RuntimeError("generator exploded")

    monkeypatch.setattr(fuzz, "generate_with_choices", boom)
    result = run_fuzz_cell((9, 4))
    assert not result.ok
    assert "generator exploded" in result.error
    assert "crashed" in result.describe()


def test_failures_render_in_describe():
    result = FuzzResult(seed=3, n_pes=4, failures=("values[ccdp]: u differs",))
    assert not result.ok
    assert "FAIL" in result.describe()
    assert "1 failure(s)" in result.describe()


def test_cell_simulates_each_version_once_per_backend(monkeypatch):
    """The fold, value and stale checks read the reference run the
    backend diff already made: two simulations per fuzzed version."""
    from repro.runtime import Interpreter

    runs = []
    real_run = Interpreter.run

    def counted(self):
        runs.append((self.config.version, self.config.backend))
        return real_run(self)

    monkeypatch.setattr(Interpreter, "run", counted)
    result = run_fuzz_cell((0, 4))
    assert result.ok, result.failures
    assert len(fuzz.FUZZ_VERSIONS) == 6
    assert len(runs) == 12
    assert sorted(runs) == sorted((version, backend)
                                  for version in fuzz.FUZZ_VERSIONS
                                  for backend in ("reference", "batched"))


def test_shared_run_still_fails_on_a_fold_mismatch(monkeypatch):
    from repro.obs import fold

    monkeypatch.setattr(fold, "reconcile",
                        lambda events, machine: ["injected mismatch"])
    result = run_fuzz_cell((0, 4))
    for version in fuzz.FUZZ_VERSIONS:
        assert f"fold[{version}]: injected mismatch" in result.failures


@pytest.mark.parametrize("version", ["ccdp", "mesi"])
def test_shared_run_still_fails_on_a_corrupt_final_array(monkeypatch,
                                                         version):
    """Corrupting the reference run's memory after the backend diff must
    surface as a value mismatch against seq."""
    from repro.harness import equivalence

    real_compare = equivalence.compare_backends

    def corrupting(program, params, v, **kwargs):
        report = real_compare(program, params, v, **kwargs)
        if v == version:
            values = report.result_ref.machine.memory.values
            values[sorted(values)[0]][0] += 1.0
        return report

    monkeypatch.setattr(equivalence, "compare_backends", corrupting)
    result = run_fuzz_cell((0, 4))
    assert any(f.startswith(f"values[{version}]: ")
               for f in result.failures), result.failures
    assert not any(f.startswith("backend[") for f in result.failures)

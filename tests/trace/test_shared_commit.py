"""Trace replay shares the batched backend's stale-line rule: where no
resident copy can be stale (one PE, or a hardware protocol) the bulk
replay scans no cache for stale lines, and still ends in the reference
replay's exact state."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.machine import batchops
from repro.machine.params import t3d
from repro.runtime.exec_config import Backend
from repro.trace import TraceProgram
from repro.trace import program as trace_program
from repro.workloads import workload

from .test_batched_replay import coverage, full_diff

GOLDEN = Path(__file__).parent.parent / "obs" / "golden" / "mxm_n8_ccdp.jsonl"


def _spy(monkeypatch) -> list:
    """Record every ``stale_lines`` call, through batchops or a name the
    trace module imported itself."""
    calls = []
    real = batchops.stale_lines

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(batchops, "stale_lines", spy)
    monkeypatch.setattr(trace_program, "stale_lines", spy, raising=False)
    return calls


def _replay(version, backend):
    decls = workload("mxm").build(n=8).arrays.values()
    trace = TraceProgram.from_jsonl(GOLDEN, decls, 4)
    return trace.replay(t3d(4, cache_bytes=2048), version,
                        backend=backend, oracle=True)


@pytest.mark.parametrize("version", ("mesi", "dir"))
def test_protocol_replay_scans_no_stale_lines(monkeypatch, version):
    ref = _replay(version, Backend.REFERENCE)
    calls = _spy(monkeypatch)
    bat = _replay(version, Backend.BATCHED)
    assert not calls
    assert coverage(bat) >= 0.95
    diffs = full_diff(ref, bat)
    assert not diffs, "\n".join(diffs[:10])


def test_incoherent_replay_still_scans(monkeypatch):
    # Without a protocol, on several PEs, a remote write can leave a
    # copy stale: the rule must not skip the scan there.
    calls = _spy(monkeypatch)
    _replay("naive", Backend.BATCHED)
    assert calls

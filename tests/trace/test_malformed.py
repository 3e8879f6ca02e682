"""Malformed-trace handling: every parse failure must be one actionable
line carrying ``file:line``, raised as :class:`TraceError` — and the
``ccdp replay`` CLI must surface it as a single stderr line with exit
code 2, never a traceback.

The grammar under test is the one the docs quote —
:data:`repro.trace.TEXT_GRAMMAR` is the single source of truth — so a
grammar change that invalidates these messages must update that
constant too.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.trace import (MAX_ADDR, TEXT_GRAMMAR, TraceError, TraceProgram,
                         read_jsonl_events, read_text_records, scan_text)


def _trace(tmp_path, text, name="bad.trace"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _expect_scan_error(tmp_path, text, lineno, fragment):
    path = _trace(tmp_path, text)
    with pytest.raises(TraceError, match=re.escape(fragment)) as exc:
        scan_text(path)
    assert str(exc.value).startswith(f"{path}:{lineno}: "), \
        f"error lacks file:line prefix: {exc.value}"
    assert "\n" not in str(exc.value), "error must be a single line"


# -- grammar violations, one per error site --------------------------------

def test_truncated_access_line(tmp_path):
    _expect_scan_error(tmp_path, "a read 1 0\na read\n", 2,
                       "truncated access line (got 2 token(s)")


def test_too_many_tokens(tmp_path):
    _expect_scan_error(tmp_path, "a read 1 0 7\n", 1,
                       "too many tokens (5) in access line")


def test_unknown_access_keyword(tmp_path):
    _expect_scan_error(tmp_path, "a fetch 3\n", 1,
                       "unknown access keyword 'fetch'")


def test_unknown_array_label_in_declared_mode(tmp_path):
    _expect_scan_error(tmp_path, "%array a 8\nb read 0\n", 2,
                       "unknown array label 'b'")


def test_negative_address(tmp_path):
    _expect_scan_error(tmp_path, "a read -1\n", 1, "negative address -1")


def test_overflowing_address(tmp_path):
    _expect_scan_error(tmp_path, f"a read {MAX_ADDR + 1}\n", 1,
                       "overflows the 64-bit word-address space")


def test_address_out_of_declared_bounds(tmp_path):
    _expect_scan_error(tmp_path, "%array a 8\na read 8\n", 2,
                       "address 8 out of bounds for a (declared size 8")


def test_pe_out_of_range(tmp_path):
    _expect_scan_error(tmp_path, "%pes 2\na read 0 5\n", 2,
                       "PE 5 out of range")


def test_non_integer_address(tmp_path):
    _expect_scan_error(tmp_path, "a read x\n", 1,
                       "address must be an integer, got 'x'")


def test_unknown_directive(tmp_path):
    _expect_scan_error(tmp_path, "%foo 1\n", 1, "unknown directive '%foo'")


def test_barrier_takes_no_operands(tmp_path):
    _expect_scan_error(tmp_path, "barrier 2\n", 1,
                       "'barrier' takes no operands")


def test_pes_after_first_access(tmp_path):
    _expect_scan_error(tmp_path, "a read 0\n%pes 2\n", 2,
                       "%pes must precede the first access")


def test_duplicate_array_declaration(tmp_path):
    _expect_scan_error(tmp_path, "%array a 8\n%array a 8\n", 2,
                       "array 'a' declared twice")


def test_non_utf8_line(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_bytes(b"a read 0\n\xff\xfe read 1\n")
    with pytest.raises(TraceError, match="not UTF-8 text"):
        scan_text(path)


def test_interleaved_pe_blocks(tmp_path):
    """Within one epoch each PE's accesses must be contiguous; the
    record reader points at the offending line and suggests the fix."""
    path = _trace(tmp_path,
                  "a read 0 0\na read 1 1\na read 2 0\n")
    with pytest.raises(TraceError, match=re.escape(
            "PE 0 accesses interleave with PE 1 in epoch 0")) as exc:
        list(read_text_records(path))
    assert str(exc.value).startswith(f"{path}:3: ")
    assert "insert a 'barrier'" in str(exc.value)


def test_empty_trace_rejected(tmp_path):
    path = _trace(tmp_path, "# nothing but comments\n\n")
    with pytest.raises(TraceError, match="trace contains no accesses"):
        TraceProgram.from_text(path)


# -- JSONL ------------------------------------------------------------------

def test_jsonl_bad_json_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('\n{not json\n')
    with pytest.raises(TraceError, match="not a JSON object") as exc:
        list(read_jsonl_events(path))
    assert str(exc.value).startswith(f"{path}:2: ")


def test_jsonl_unknown_event(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"ev": "warp_drive", "pe": 0}\n')
    with pytest.raises(TraceError) as exc:
        list(read_jsonl_events(path))
    assert str(exc.value).startswith(f"{path}:1: ")


NON_OBJECT_LINES = ["1", "null", '"every"', "[1, 2]", "true",
                    '{"ev": ["barrier"], "time": 0}']


@pytest.mark.parametrize("line", NON_OBJECT_LINES)
def test_jsonl_non_object_line(tmp_path, line):
    """Valid JSON that is not an event object is a positioned
    TraceError, not a TypeError from indexing the value."""
    path = tmp_path / "bad.jsonl"
    path.write_text('{"ev":"barrier","time":0}\n' + line + "\n")
    with pytest.raises(TraceError) as exc:
        list(read_jsonl_events(path))
    assert str(exc.value).startswith(f"{path}:2: ")
    assert "\n" not in str(exc.value), "error must be a single line"


def test_jsonl_not_utf8(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"ev":"barrier","time":0}\n{"ev":"\xff"}\n')
    with pytest.raises(TraceError) as exc:
        list(read_jsonl_events(path))
    assert str(exc.value).startswith(f"{path}:2: ")


# -- CLI surface ------------------------------------------------------------

def test_cli_reports_one_line_and_exit_2(tmp_path, capsys):
    from repro.harness.cli import main
    path = _trace(tmp_path, "a read\n")
    rc = main(["replay", "--trace", str(path), "--version", "ccdp"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: {path}:1: ")
    assert "truncated access line" in captured.err
    assert captured.err.count("\n") == 1, "exactly one stderr line"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("line", NON_OBJECT_LINES)
def test_cli_jsonl_non_object_line(tmp_path, capsys, line):
    from repro.harness.cli import main
    path = _trace(tmp_path, line + "\n", name="bad.jsonl")
    rc = main(["replay", "--trace", str(path), "--version", "ccdp"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: {path}:1: ")
    assert captured.err.count("\n") == 1, "exactly one stderr line"


@pytest.mark.parametrize("backend", ["reference", "batched"])
def test_cli_index_past_declared_size(capsys, backend):
    """Replaying the n=8 golden MXM trace against n=4 declarations: the
    first access past an array's declared size is one usage-error line
    naming the array, the index and the size, on either backend."""
    from repro.harness.cli import main
    trace = Path(__file__).parent.parent / "obs" / "golden" / \
        "mxm_n8_ccdp.jsonl"
    rc = main(["replay", "--trace", str(trace), "--workload", "mxm",
               "--n", "4", "--version", "ccdp", "--backend", backend])
    captured = capsys.readouterr()
    assert rc == 2
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1, captured.err
    assert errors[0].startswith("error: trace accesses a[16] but a is "
                                "declared with 16 element(s)")
    assert "Traceback" not in captured.err


def test_grammar_docs_cover_the_surface():
    """TEXT_GRAMMAR (the docs' single source of truth) names every
    construct the parser accepts or rejects above."""
    for token in ("%pes", "%array", "barrier", "read", "write", "#"):
        assert token in TEXT_GRAMMAR, token

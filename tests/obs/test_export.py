"""Exporters and the validate CLI: JSONL round-trips, Chrome trace,
normalisation guarantees the golden snapshots depend on, and the JSONL
codec's exactness against plain ``json.dumps`` / ``json.loads``."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (EVENT_FIELDS, EpochPEMetrics, EpochRow, JSONLError,
                       chrome_trace, event_from_dict, event_to_dict,
                       event_to_json, events_to_jsonl, iter_jsonl,
                       read_jsonl, write_jsonl)
from repro.obs.export import normalize_value
from repro.obs.validate import main as validate_main
from repro.obs.validate import validate_file

EVENTS = [
    ("epoch_begin", 0, "init", 0),
    ("read_miss", 1, "a", 3, 1),
    ("barrier", 96.0),
    ("epoch_end", 0, "init", 96.0),
]


@pytest.mark.parametrize("value,expect", [
    (12.0, 12), (12.5, 12.5), (7, 7), ("a", "a"), (True, True),
    (np.int64(4), 4), (np.float64(8.0), 8),
])
def test_normalize_value(value, expect):
    got = normalize_value(value)
    assert got == expect and type(got) is type(expect)


def test_event_to_json_is_sorted_and_compact():
    line = event_to_json(("read_miss", np.int64(1), "a", 3, np.int64(0)))
    assert line == '{"array":"a","ev":"read_miss","flat":3,"local":0,"pe":1}'


def test_events_to_jsonl_trailing_newline():
    assert events_to_jsonl([]) == ""
    text = events_to_jsonl(EVENTS)
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert len(text.splitlines()) == len(EVENTS)


def test_jsonl_roundtrip(tmp_path):
    path = tmp_path / "trace.jsonl"
    assert write_jsonl(EVENTS, path) == len(EVENTS)
    assert read_jsonl(path) == EVENTS


def test_read_jsonl_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(event_to_json(EVENTS[0]) + "\n"
                    + '{"ev":"warp_core_breach"}\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
        read_jsonl(path)


def _timeline():
    row = EpochRow(index=0, label="init", start=0.0, end=96.0)
    row.per_pe.append(EpochPEMetrics(
        pe=0, reads=10, hits=8, misses=2, prefetch_issued=3, pf_dropped=1,
        stall_cycles=4.0, queue_high_water=2, cache_lines=5))
    return [row]


def test_chrome_trace_structure():
    doc = chrome_trace(_timeline(), EVENTS, metadata={"workload": "mxm"})
    assert doc["otherData"] == {"workload": "mxm"}
    by_ph = {}
    for ev in doc["traceEvents"]:
        by_ph.setdefault(ev["ph"], []).append(ev)
    assert len(by_ph["M"]) == 2                       # process + track names
    (span,) = by_ph["X"]
    assert (span["name"], span["ts"], span["dur"]) == ("init", 0, 96)
    assert {c["name"] for c in by_ph["C"]} == {
        "pe0 hit_rate", "pe0 queue_hw", "pe0 stall_cycles"}
    (instant,) = by_ph["i"]
    assert instant["ts"] == 96 and instant["s"] == "g"
    json.dumps(doc)                                   # serialisable as-is


def test_validate_file_census(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_jsonl(EVENTS, path)
    n, counts = validate_file(path)
    assert n == len(EVENTS)
    assert counts["epoch_begin"] == counts["epoch_end"] == 1


def test_validate_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.jsonl"
    write_jsonl(EVENTS, good)
    assert validate_main([str(good)]) == 0
    assert "OK" in capsys.readouterr().out

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ev":"barrier","time":"noon"}\n')
    assert validate_main([str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().err

    notjson = tmp_path / "notjson.jsonl"
    notjson.write_text("{nope\n")
    assert validate_main([str(notjson)]) == 1

    assert validate_main([]) == 2


@pytest.mark.parametrize("line", ["1", "null", '"every"', "[]", "true",
                                  '{"ev": {"kind": 1}}'])
def test_non_object_line_is_a_positioned_error(tmp_path, capsys, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(event_to_json(EVENTS[0]) + "\n" + line + "\n")
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: "):
        read_jsonl(path)
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: "):
        validate_file(path)
    assert validate_main([str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"INVALID: {path}:2: ")


def test_event_from_dict_rejects_non_objects():
    for record in (1, None, "every", [("ev", "barrier")]):
        with pytest.raises(ValueError, match="not a JSON object"):
            event_from_dict(record)


def test_write_jsonl_streams_in_blocks(tmp_path):
    """More lines than one write block: count and bytes unchanged."""
    from repro.obs.export import WRITE_BLOCK
    events = [("barrier", t) for t in range(2 * WRITE_BLOCK + 3)]
    path = tmp_path / "many.jsonl"
    assert write_jsonl(iter(events), path) == len(events)
    assert path.read_text() == events_to_jsonl(events)
    assert read_jsonl(path) == events


# -- codec properties -----------------------------------------------------------

def _oracle_line(event) -> str:
    """The encoder's specification: plain ``json.dumps`` of the
    normalized record."""
    record = {key: normalize_value(val)
              for key, val in event_to_dict(event).items()}
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


_TRICKY_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
    st.characters(max_codepoint=0x7f),
    st.characters(min_codepoint=0x80)), max_size=12)

_FINITE = st.floats(allow_nan=False, allow_infinity=False)

#: values that decode back equal to themselves
_ROUND_TRIP_VALUES = st.one_of(
    st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    _FINITE, _FINITE.map(np.float64), st.integers(-2**53, 2**53).map(float),
    st.booleans(), _TRICKY_TEXT)

_VALUES = st.one_of(_ROUND_TRIP_VALUES, st.floats(), st.floats().map(np.float64))


def _events(values):
    return st.sampled_from(sorted(EVENT_FIELDS)).flatmap(
        lambda kind: st.tuples(st.just(kind), *[values] *
                               len(EVENT_FIELDS[kind])))


@settings(max_examples=300, deadline=None)
@given(_events(_VALUES))
def test_encoder_matches_json_dumps(event):
    assert event_to_json(event) == _oracle_line(event)


def test_encoder_covers_every_kind():
    for kind, fields in EVENT_FIELDS.items():
        event = (kind,) + tuple(range(len(fields)))
        assert event_to_json(event) == _oracle_line(event)


def test_encoder_rejects_wrong_width():
    with pytest.raises(ValueError, match="schema wants 1"):
        event_to_json(("barrier", 1, 2))


@settings(max_examples=100, deadline=None)
@given(st.lists(_events(_ROUND_TRIP_VALUES), max_size=8))
def test_codec_round_trip(tmp_path_factory, events):
    path = tmp_path_factory.mktemp("codec") / "t.jsonl"
    assert write_jsonl(events, path) == len(events)
    assert read_jsonl(path) == events
    assert events_to_jsonl(events).encode() == path.read_bytes()


# -- decoder parity: exactly per-line json.loads + event_from_dict ------------

def _reference(path):
    """``[(lineno, event), ...]`` and the first error (or None), by
    the specification: lines end at ``\\n``, blank lines skipped."""
    out = []
    for lineno, raw in enumerate(path.read_bytes().split(b"\n"), 1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            out.append((lineno, event_from_dict(json.loads(line))))
        except ValueError as exc:
            return out, (lineno, exc)
    return out, None


def _assert_parity(path):
    want, error = _reference(path)
    got = []
    try:
        for item in iter_jsonl(path):
            got.append(item)
    except JSONLError as exc:
        assert error is not None, f"unexpected error {exc}"
        lineno, cause = error
        assert (exc.lineno, type(exc.cause), str(exc.cause)) == \
            (lineno, type(cause), str(cause))
        assert str(exc).startswith(f"{path}:{lineno}: ")
    else:
        assert error is None, f"missing error {error}"
    assert len(got) == len(want)
    for (gl, ge), (wl, we) in zip(got, want):
        assert gl == wl and len(ge) == len(we)
        assert all(a == b or (a != a and b != b) for a, b in zip(ge, we))


_GOOD = '{"ev":"barrier","time":5}'
PARITY_CORPUS = {
    "blank and whitespace-only lines": f"\n   \n\t\n{_GOOD}\n \r\n",
    "CRLF endings": f"{_GOOD}\r\n{_GOOD}\r\n",
    "leading and trailing whitespace": f"  {_GOOD}\t \n\t{_GOOD}",
    "no final newline": _GOOD,
    "two objects on one line": f"{_GOOD}\n{_GOOD}{_GOOD}\n",
    "object split over two lines": '{"ev":"barrier",\n"time":5}\n',
    "trailing garbage": f"{_GOOD} x\n",
    "missing key": '{"ev":"barrier"}\n',
    "extra key": '{"ev":"barrier","time":5,"pe":0}\n',
    "unknown kind": '{"ev":"warp_drive","pe":0}\n',
    "no ev key": '{"time":5}\n',
    "non-object JSON": f'{_GOOD}\n1\nnull\n',
    "string line": '"every"\n',
    "unhashable kind": '{"ev":["barrier"],"time":5}\n',
    "duplicate key": '{"ev":"barrier","time":5,"time":6}\n',
    "byte-order mark": "\ufeff" + _GOOD + "\n",
    "unterminated string": '{"ev":"barr\n',
    "empty object": "{}\n",
    "non-finite numbers": '{"ev":"barrier","time":NaN}\n'
                          '{"ev":"barrier","time":-Infinity}\n',
    "escaped unicode": '{"array":"\\u00e9\\ud83d\\ude00","ev":"pf_complete",'
                       '"flat":1,"pe":0}\n',
    "form feed line": f"\x0c\n{_GOOD}\n",
    # joined by commas, lines 1-2 are one valid object; line 3 brings
    # the object count back to the line count
    "object split over two lines, compensated":
        f'{{"ev":"barrier"\n"time":5}}\n{_GOOD},{_GOOD}\n',
    # joined, line 1's array swallows line 2 (a barrier whose time is a
    # list); line 4 makes up the missing object
    "nested array spanning lines":
        f'{{"ev":"barrier","time":[5\n{_GOOD}]}}\n{_GOOD}\n{_GOOD},{_GOOD}\n',
    # valid as two array elements, not as one line
    "two comma-separated objects on one line": f"{_GOOD}\n{_GOOD},{_GOOD}\n",
}


@pytest.mark.parametrize("name", sorted(PARITY_CORPUS))
def test_decoder_parity_corpus(tmp_path, name):
    path = tmp_path / "t.jsonl"
    path.write_bytes(PARITY_CORPUS[name].encode("utf-8"))
    _assert_parity(path)


def test_decoder_rejects_non_utf8(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(_GOOD.encode() + b"\n\xff\n")
    _assert_parity(path)


_LINE_PIECES = st.sampled_from(
    [_GOOD, " ", "\t", "\r", "{", "}", '"ev"', ":", ",", '"barrier"',
     '"time"', "5", "1.5", "null", "[", "]", '"pe"', "x", "\x0c", "\u00e9"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_LINE_PIECES, max_size=6).map("".join),
                max_size=6))
def test_decoder_parity_fuzz(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("parity") / "t.jsonl"
    path.write_bytes("\n".join(lines).encode("utf-8"))
    _assert_parity(path)


# -- block decode: cases only a decoder of many lines at once could miss -------

_BAD = '{"ev":"barrier","tine":5}'          # as long as _GOOD, wrong key


def test_decoder_rejects_encoded_surrogate(tmp_path):
    """``json.loads`` of bytes would let an encoded surrogate pass."""
    path = tmp_path / "t.jsonl"
    path.write_bytes(f"{_GOOD}\n".encode()
                     + b'{"array":"\xed\xa0\x80","ev":"pf_complete",'
                     b'"flat":1,"pe":0}\n' + f"{_GOOD}\n".encode())
    _assert_parity(path)


def _blocks(path):
    """Line counts of the blocks :func:`iter_jsonl` reads."""
    from repro.obs.export import READ_BLOCK
    with open(path, "rb") as fh:
        return [len(lines) for lines in iter(
            lambda: fh.readlines(READ_BLOCK), [])]


def test_decoder_parity_across_blocks(tmp_path):
    """A trace of several blocks: a blank line opening the second
    block, a bad line inside the third; errors name their own line."""
    from repro.obs.export import READ_BLOCK
    path = tmp_path / "t.jsonl"
    lines = [_GOOD] * (4 * READ_BLOCK // len(_GOOD))
    path.write_text("\n".join(lines) + "\n")
    first = _blocks(path)[0]
    lines[first] = ""
    path.write_text("\n".join(lines) + "\n")
    sizes = _blocks(path)
    assert sizes[0] == first and len(sizes) >= 4
    bad = sum(sizes[:2]) + sizes[2] // 2
    lines[bad] = _BAD
    path.write_text("\n".join(lines) + "\n")
    assert _blocks(path) == sizes
    _assert_parity(path)
    with pytest.raises(JSONLError,
                       match=f"^{re.escape(str(path))}:{bad + 1}: ") as info:
        read_jsonl(path)
    assert info.value.lineno == bad + 1


GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.jsonl"))


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.name)
def test_golden_round_trip(path):
    """Real traces of several blocks each: decoded like per-line
    ``json.loads``, and re-encoded to the same bytes."""
    want, error = _reference(path)
    assert error is None and len(GOLDEN) == 8 and len(_blocks(path)) > 1
    assert list(iter_jsonl(path)) == want
    assert events_to_jsonl(read_jsonl(path)).encode() == path.read_bytes()

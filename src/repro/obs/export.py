"""Trace exporters: normalized JSONL and Chrome-trace (Perfetto) JSON.

JSONL is the interchange + golden-snapshot format: one event per line,
keys sorted, compact separators, and integral floats written as ints,
so a byte-level diff of two traces is meaningful and stable.  The
Chrome-trace exporter renders the epoch timeline (spans + per-PE
counter tracks) and barrier instants for ``chrome://tracing`` /
https://ui.perfetto.dev — the machine clock (cycles) is mapped onto the
microsecond timestamp axis.

The JSONL codec is exact: lines are written by one generated encoder
per event kind, yet byte-identical to ``json.dumps`` of the normalized
record, and decoded block by block to exactly what
``event_from_dict(json.loads(line))`` gives.
"""

from __future__ import annotations

import json
from itertools import islice
from json.decoder import WHITESPACE
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .events import EVENT_FIELDS, event_from_dict

PathLike = Union[str, Path]

#: events per block written by :func:`write_jsonl` (bounds the text held)
WRITE_BLOCK = 4096


def normalize_value(value):
    """JSON-safe scalar: NumPy ints/floats -> Python, integral floats
    -> int (so ``12.0`` and ``12`` serialise identically)."""
    if isinstance(value, bool) or isinstance(value, str):
        return value
    if hasattr(value, "item"):        # NumPy scalar
        value = value.item()
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _encode_value(value) -> str:
    return _ENCODER.encode(normalize_value(value))


def _width_error(event: tuple, width: int) -> ValueError:
    return ValueError(f"{event[0]} event has {len(event) - 1} fields, "
                      f"schema wants {width - 1}: {event!r}")


def _make_encoder(kind: str):
    """Generate the line encoder of one event kind: unpack the tuple,
    write each value in sorted key order, a plain ``int`` or ``str``
    inline and any other type through :func:`_encode_value`."""
    fields = EVENT_FIELDS[kind]
    args = {key: f"v{i}" for i, key in enumerate(fields)}
    parts = []
    for i, key in enumerate(sorted(("ev",) + fields)):
        prefix = ("," if i else "{") + encode_basestring_ascii(key) + ":"
        arg = args.get(key)
        if arg is None:                       # "ev": the kind itself
            parts.append(repr(prefix + encode_basestring_ascii(kind)))
        else:
            parts.append(repr(prefix))
            parts.append(f"f'{{{arg} if type({arg}) is int else "
                         f"_str({arg}) if type({arg}) is str else "
                         f"_value({arg})}}'")
    parts.append("'}'")
    src = (f"def _encode_event(event):\n"
           f"    try:\n"
           f"        _, {', '.join(args.values())}, = event\n"
           f"    except ValueError:\n"
           f"        raise _width_error(event, {len(fields) + 1}) from None\n"
           f"    return ({' '.join(parts)})\n")
    ns = {"_str": encode_basestring_ascii, "_value": _encode_value,
          "_width_error": _width_error}
    exec(compile(src, f"<jsonl-encoder-{kind}>", "exec"), ns)
    return ns["_encode_event"]


class _Encoders(dict):
    """kind -> generated line encoder, each built on its first use."""

    def __missing__(self, kind):
        encoder = self[kind] = _make_encoder(kind)
        return encoder


_ENCODERS = _Encoders()


def _encode(events: Iterable[tuple]) -> List[str]:
    """The normalized JSONL line of each event (no newlines)."""
    encoders = _ENCODERS
    return [encoders[event[0]](event) for event in events]


def event_to_json(event: tuple) -> str:
    """One normalized JSONL line (no trailing newline)."""
    return _encode((event,))[0]


def events_to_jsonl(events: Iterable[tuple]) -> str:
    """Full normalized JSONL document (trailing newline included)."""
    lines = _encode(events)
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(events: Iterable[tuple], path: PathLike) -> int:
    """Write events as JSONL, :data:`WRITE_BLOCK` lines at a time;
    returns the number of lines written."""
    events = iter(events)
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        while True:
            lines = _encode(islice(events, WRITE_BLOCK))
            if not lines:
                return n
            n += len(lines)
            fh.write("\n".join(lines) + "\n")


class JSONLError(ValueError):
    """A malformed JSONL line, as ``path:lineno: reason``.  ``cause`` is
    the underlying error: a ``json.JSONDecodeError`` when the line is
    not JSON at all, else the schema's ``ValueError``."""

    def __init__(self, path, lineno: int, cause: ValueError) -> None:
        invalid = isinstance(cause, json.JSONDecodeError)
        super().__init__(
            f"{path}:{lineno}: {'invalid JSON: ' if invalid else ''}{cause}")
        self.lineno = lineno
        self.cause = cause


_scan_once = json.JSONDecoder().scan_once
_whitespace = WHITESPACE.match

#: kind -> (the record's key set, getter of the event tuple from it)
_RECORD_PLANS = {kind: (frozenset(("ev",) + fields),
                        itemgetter("ev", *fields))
                 for kind, fields in EVENT_FIELDS.items()}

#: bytes of whole lines :func:`iter_jsonl` decodes at once; larger
#: blocks buy little speed and raise peak memory
READ_BLOCK = 32 * 1024


def _decode_line(raw: bytes):
    """The event of one ``\\n``-ended line, ``None`` for a blank one."""
    line = raw.decode("utf-8")
    try:
        record, end = _scan_once(line, 0)
        whole = line[end:] == "\n" or \
            _whitespace(line, end).end() == len(line)
    except (StopIteration, ValueError):
        whole = False
    if not whole:
        if line.isspace():
            return None
        record = json.loads(line.removesuffix("\n"))
    kind = record.get("ev") if type(record) is dict else None
    plan = _RECORD_PLANS.get(kind) if type(kind) is str else None
    if plan is not None and record.keys() == plan[0]:
        return plan[1](record)
    return event_from_dict(record)


def _decode_block(lines: List[bytes]) -> Optional[List[tuple]]:
    """The events of whole lines, by one ``json.loads`` of them joined
    into an array, or ``None`` when the block must go line by line.

    Every line must start with ``{`` and the block hold no ``[``: a
    comma then sits before a ``{`` only at the array's top level, so
    each joining comma separates two values, and one object per line
    means each line is exactly one JSON value -- what ``json.loads``
    of the line alone accepts.  Every record must then have its kind's
    key set.  Strict UTF-8, unlike ``json.loads`` of bytes, rejects
    what the per-line decode rejects."""
    block = b",".join(lines)
    if block[:1] != b"{" or b"[" in block or \
            block.count(b"\n,{") != len(lines) - 1:
        return None
    try:
        records = json.loads((b"[" + block + b"]").decode("utf-8"))
    except (ValueError, RecursionError):    # the array nests one deeper
        return None
    if len(records) != len(lines):
        return None
    # A record whose width is its kind's and that holds every key of
    # it has exactly its key set.  A missing or unknown kind, or one
    # of another JSON type, raises KeyError; an object, TypeError.
    plans, events = _RECORD_PLANS, []
    try:
        for record in records:
            keys, get = plans[record["ev"]]
            if len(record) != len(keys):
                return None
            events.append(get(record))
    except (KeyError, TypeError):
        return None
    return events


def iter_jsonl(path: PathLike) -> Iterator[Tuple[int, tuple]]:
    """Stream ``(lineno, event)`` pairs from a JSONL trace.

    Block by block, :data:`READ_BLOCK` bytes of whole lines at a time,
    so the whole trace is never resident.  Lines end at ``\\n``; blank
    lines are skipped.  Each line yields exactly
    ``event_from_dict(json.loads(line))``.  A block of one object per
    line is decoded by one ``json.loads``; any other block goes line by
    line, through the C scanner behind ``json.loads`` and, for a line it
    does not consume whole (leading whitespace, or an error),
    ``json.loads`` itself.  A malformed line raises :class:`JSONLError`."""
    lineno = 0
    with open(path, "rb") as fh:
        while lines := fh.readlines(READ_BLOCK):
            events = _decode_block(lines)
            if events is not None:
                yield from enumerate(events, lineno + 1)
                lineno += len(lines)
                continue
            for raw in lines:
                lineno += 1
                try:
                    event = _decode_line(raw)
                except ValueError as exc:
                    raise JSONLError(path, lineno, exc) from None
                if event is not None:
                    yield lineno, event


def read_jsonl(path: PathLike) -> List[tuple]:
    """Parse a JSONL trace back into event tuples (raises on malformed
    lines, with the 1-based line number in the message)."""
    return [event for _, event in iter_jsonl(path)]


def chrome_trace(timeline: Sequence, events: Iterable[tuple] = (),
                 metadata: Optional[dict] = None) -> dict:
    """Chrome-trace JSON object from a metrics timeline + event stream.

    - each epoch becomes a complete ("X") span on the Epochs track;
    - each ``barrier`` event becomes a global instant ("i");
    - each :class:`~repro.obs.tracer.EpochPEMetrics` row becomes counter
      ("C") samples per PE (hit rate, queue high-water, stalls).
    """
    trace_events: List[dict] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": "ccdp machine"}},
        {"ph": "M", "pid": 0, "tid": 0, "name": "thread_name",
         "args": {"name": "Epochs"}},
    ]
    for row in timeline:
        trace_events.append({
            "ph": "X", "pid": 0, "tid": 0, "name": row.label,
            "ts": normalize_value(row.start),
            "dur": normalize_value(max(row.duration, 0.0)),
            "args": {"epoch": row.index}})
        for m in row.per_pe:
            ts = normalize_value(row.end)
            trace_events.append(
                {"ph": "C", "pid": 0, "tid": 0, "ts": ts,
                 "name": f"pe{m.pe} hit_rate", "args": {"v": m.hit_rate}})
            trace_events.append(
                {"ph": "C", "pid": 0, "tid": 0, "ts": ts,
                 "name": f"pe{m.pe} queue_hw",
                 "args": {"v": m.queue_high_water}})
            trace_events.append(
                {"ph": "C", "pid": 0, "tid": 0, "ts": ts,
                 "name": f"pe{m.pe} stall_cycles",
                 "args": {"v": normalize_value(m.stall_cycles)}})
    for event in events:
        if event[0] == "barrier":
            trace_events.append({
                "ph": "i", "pid": 0, "tid": 0, "s": "g", "name": "barrier",
                "ts": normalize_value(event[1])})
    doc = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    if metadata:
        doc["otherData"] = metadata
    return doc


def write_chrome_trace(timeline: Sequence, path: PathLike,
                       events: Iterable[tuple] = (),
                       metadata: Optional[dict] = None) -> None:
    doc = chrome_trace(timeline, events, metadata)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


__all__ = ["normalize_value", "event_to_json", "events_to_jsonl",
           "write_jsonl", "JSONLError", "iter_jsonl", "read_jsonl",
           "chrome_trace", "write_chrome_trace"]

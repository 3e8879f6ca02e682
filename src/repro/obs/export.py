"""Trace exporters: normalized JSONL and Chrome-trace (Perfetto) JSON.

JSONL is the interchange + golden-snapshot format: one event per line,
keys sorted, compact separators, and integral floats written as ints,
so a byte-level diff of two traces is meaningful and stable.  The
Chrome-trace exporter renders the epoch timeline (spans + per-PE
counter tracks) and barrier instants for ``chrome://tracing`` /
https://ui.perfetto.dev — the machine clock (cycles) is mapped onto the
microsecond timestamp axis.

The JSONL codec is exact: lines are assembled from per-kind plans, yet
byte-identical to ``json.dumps`` of the normalized record, and decoded
to exactly what ``event_from_dict(json.loads(line))`` gives.
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


#: exact encoders of the two types nearly every field has; any other
#: type (bool, float, NumPy scalar) is normalized first
_VALUE_ENCODERS = {int: int.__repr__, str: encode_basestring_ascii}


def _encode_plan(fields: Tuple[str, ...]):
    """(width, %-template with the keys in sorted order, picker of the
    tuple's values in that order) for one event kind."""
    names = ("ev",) + fields
    order = sorted(range(len(names)), key=names.__getitem__)
    template = "{%s}" % ",".join(
        f"{encode_basestring_ascii(names[i])}:%s" for i in order)
    return len(names), template, itemgetter(*order)


_ENCODE_PLANS = {kind: _encode_plan(fields)
                 for kind, fields in EVENT_FIELDS.items()}


def _encode(events: Iterable[tuple]) -> List[str]:
    """The normalized JSONL line of each event (no newlines)."""
    plans, encoder_for = _ENCODE_PLANS, _VALUE_ENCODERS.get
    lines = []
    for event in events:
        width, template, pick = plans[event[0]]
        if len(event) != width:
            raise ValueError(f"{event[0]} event has {len(event) - 1} "
                             f"fields, schema wants {width - 1}: {event!r}")
        lines.append(template % tuple([
            encoder_for(type(value), _encode_value)(value)
            for value in pick(event)]))
    return lines


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


def iter_jsonl(path: PathLike) -> Iterator[Tuple[int, tuple]]:
    """Stream ``(lineno, event)`` pairs from a JSONL trace.

    One line at a time, so the whole trace is never resident.  Lines end
    at ``\\n``; blank lines are skipped.  Each line yields exactly
    ``event_from_dict(json.loads(line))``: the C scanner behind
    ``json.loads`` is called directly, and a line it does not consume
    whole (leading whitespace, or an error) goes to ``json.loads``
    itself.  A malformed line raises :class:`JSONLError`."""
    plans = _RECORD_PLANS
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
                try:
                    record, end = _scan_once(line, 0)
                    whole = line[end:] == "\n" or \
                        _whitespace(line, end).end() == len(line)
                except (StopIteration, ValueError):
                    whole = False
                if not whole:
                    if line.isspace():
                        continue
                    record = json.loads(line.removesuffix("\n"))
                kind = record.get("ev") if type(record) is dict else None
                plan = plans.get(kind) if type(kind) is str else None
                if plan is not None and record.keys() == plan[0]:
                    event = plan[1](record)
                else:
                    event = event_from_dict(record)
            except ValueError as exc:
                raise JSONLError(path, lineno, exc) from None
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

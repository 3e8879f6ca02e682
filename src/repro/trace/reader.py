"""Chunked, lazily-decoded trace readers (bounded memory).

Text traces are memory-mapped and decoded line by line — a multi-GB
trace costs address space, not RSS — and both formats shard into the
record stream described in :mod:`repro.trace.format`: per-PE, per-epoch
op chunks of at most ``chunk_ops`` ops, with explicit barrier and
epoch-boundary records.  The counts-only :func:`scan_text` pass derives
a text trace's implicit geometry (array sizes, PE count, op counts)
without materialising any ops at all.
"""

from __future__ import annotations

import json
import mmap
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from ..obs.export import JSONLError, iter_jsonl
from .format import TraceError, parse_text_line, trace_error

#: default ops per ("ops", pe, [...]) chunk — small enough to bound
#: resident op tuples, large enough to amortise per-chunk dispatch.
DEFAULT_CHUNK_OPS = 4096


def _text_lines(path) -> Iterator[Tuple[int, str]]:
    """(lineno, decoded line) pairs via mmap; empty files yield nothing."""
    with open(path, "rb") as fh:
        try:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:          # cannot mmap an empty file
            return
        try:
            lineno = 0
            while True:
                raw = mm.readline()
                if not raw:
                    return
                lineno += 1
                try:
                    yield lineno, raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise trace_error(path, lineno,
                                      f"line is not UTF-8 text ({exc}); "
                                      f"text traces are plain ASCII/UTF-8") \
                        from None
        finally:
            mm.close()


@dataclass
class TextTraceInfo:
    """Geometry of one text trace, from a counts-only scan."""

    path: str
    arrays: Dict[str, int] = field(default_factory=dict)
    declared: bool = False       #: True when %array directives were used
    n_pes: Optional[int] = None  #: %pes value, else None (caller decides)
    max_pe: int = 0              #: largest PE index referenced
    n_ops: int = 0
    n_barriers: int = 0

    def pes(self, default: Optional[int] = None) -> int:
        """The PE count to simulate: ``%pes`` if declared, else the
        caller's ``default``, else enough for every referenced PE."""
        if self.n_pes is not None:
            return self.n_pes
        if default is not None:
            return default
        return self.max_pe + 1


def scan_text(path) -> TextTraceInfo:
    """Counts-only validation pass over a text trace.

    Checks every line's grammar and (in declared mode) bounds, and
    derives implicit array sizes — each label's size becomes its largest
    address + 1 — without keeping any ops in memory.
    """
    info = TextTraceInfo(path=str(path))
    implicit: Dict[str, int] = {}
    saw_access = False
    for lineno, line in _text_lines(path):
        parsed = parse_text_line(line, path, lineno,
                                 info.arrays if info.declared else None,
                                 info.n_pes)
        if parsed is None:
            continue
        kind = parsed[0]
        if kind == "pes":
            if saw_access:
                raise trace_error(path, lineno,
                                  "%pes must precede the first access")
            info.n_pes = parsed[1]
        elif kind == "array":
            if saw_access:
                raise trace_error(path, lineno,
                                  "%array must precede the first access")
            if parsed[1] in info.arrays:
                raise trace_error(path, lineno,
                                  f"array {parsed[1]!r} declared twice")
            info.arrays[parsed[1]] = parsed[2]
            info.declared = True
        elif kind == "barrier":
            info.n_barriers += 1
        else:  # access
            saw_access = True
            _, pe, op = parsed
            info.n_ops += 1
            info.max_pe = max(info.max_pe, pe)
            if not info.declared:
                name, addr = op[1], op[2]
                if addr >= implicit.get(name, 0):
                    implicit[name] = addr + 1
    if not info.declared:
        info.arrays = implicit
    if info.n_pes is not None and info.max_pe >= info.n_pes:
        raise TraceError(
            f"{path}: access on PE {info.max_pe} but %pes declares only "
            f"{info.n_pes} PE(s)")
    return info


def read_text_records(path, *, chunk_ops: int = DEFAULT_CHUNK_OPS,
                      info: Optional[TextTraceInfo] = None) -> Iterator[tuple]:
    """Stream a text trace as records (see :mod:`repro.trace.format`).

    ``info`` (from :func:`scan_text`) supplies the declared/implicit
    array sizes so every access is bounds-checked; when omitted the scan
    runs first.  Epochs are the runs of accesses between ``barrier``
    lines; within one epoch each PE's accesses must form one contiguous
    block, enforced here with file:line positions.
    """
    if chunk_ops <= 0:
        raise ValueError(f"chunk_ops must be positive: {chunk_ops}")
    if info is None:
        info = scan_text(path)
    n_pes = info.pes()
    epoch = 0
    in_epoch = False
    seen_pes: set = set()
    cur_pe: Optional[int] = None
    chunk: list = []

    def flush():
        nonlocal chunk
        if chunk:
            yield ("ops", cur_pe, chunk)
            chunk = []

    for lineno, line in _text_lines(path):
        parsed = parse_text_line(line, path, lineno, info.arrays, n_pes)
        if parsed is None or parsed[0] in ("pes", "array"):
            continue
        if parsed[0] == "barrier":
            yield from flush()
            cur_pe = None
            seen_pes.clear()
            yield ("barrier",)
            if in_epoch:
                yield ("end_epoch", epoch, f"epoch {epoch}")
                epoch += 1
                in_epoch = False
            continue
        _, pe, op = parsed
        if not in_epoch:
            yield ("epoch", epoch, f"epoch {epoch}")
            in_epoch = True
        if pe != cur_pe:
            if pe in seen_pes:
                raise trace_error(
                    path, lineno,
                    f"PE {pe} accesses interleave with PE {cur_pe} in "
                    f"epoch {epoch}: each PE's accesses must form one "
                    f"contiguous block per epoch (insert a 'barrier' "
                    f"between phases)")
            yield from flush()
            seen_pes.add(pe)
            cur_pe = pe
        chunk.append(op)
        if len(chunk) >= chunk_ops:
            yield from flush()
    yield from flush()
    if in_epoch:
        # A trailing epoch closes at end-of-trace without a barrier (no
        # synchronisation cost is charged — there is nothing after it).
        yield ("end_epoch", epoch, f"epoch {epoch}")


def read_jsonl_events(path) -> Iterator[Tuple[int, tuple]]:
    """Stream ``(lineno, event)`` pairs from a normalized JSONL trace.

    Line-by-line — the whole trace is never resident.  Malformed lines
    raise :class:`TraceError` with the file:line position.
    """
    try:
        yield from iter_jsonl(path)
    except JSONLError as exc:
        reason = exc.cause
        if isinstance(reason, json.JSONDecodeError):
            reason = (f"not a JSON object ({reason.msg}); expected one "
                      f"event per line as written by "
                      f"repro.obs.export.write_jsonl")
        raise trace_error(path, exc.lineno, str(reason)) from None


def read_jsonl_records(path, *, chunk_ops: int = DEFAULT_CHUNK_OPS
                       ) -> Iterator[tuple]:
    """Stream a JSONL event trace as replay records."""
    from .ingest import records_from_events
    return records_from_events(read_jsonl_events(path), path=path,
                               chunk_ops=chunk_ops)


def jsonl_geometry(path) -> Tuple[int, Dict[str, int]]:
    """(n_pes, per-array max flat + 1) from one streaming pass — enough
    to sanity-check a workload's declarations against a trace."""
    n_pes = 1
    sizes: Dict[str, int] = {}
    for _, event in read_jsonl_events(path):
        fields = event[1:]
        if event[0] in ("read_hit", "read_miss", "bypass_fetch", "write",
                        "pf_complete"):
            pe, name, flat = fields[0], fields[1], fields[2]
            n_pes = max(n_pes, pe + 1)
            if flat >= sizes.get(name, 0):
                sizes[name] = flat + 1
        elif event[0] in ("pf_issue", "pf_coalesce", "pf_drop",
                          "vector_transfer", "invalidate"):
            n_pes = max(n_pes, fields[0] + 1)
    return n_pes, sizes


def sniff_format(path) -> str:
    """``"jsonl"`` or ``"text"``, from the file extension."""
    suffix = Path(path).suffix.lower()
    return "jsonl" if suffix in (".jsonl", ".json") else "text"


__all__ = ["DEFAULT_CHUNK_OPS", "TextTraceInfo", "scan_text",
           "read_text_records", "read_jsonl_events", "read_jsonl_records",
           "jsonl_geometry", "sniff_format"]

"""Machine-event taxonomy: the typed vocabulary of the tracing layer.

Every observable thing the simulated machine does is one *event*: a
plain tuple whose first element is the event kind and whose remaining
elements follow the kind's field schema below.  Events deliberately
carry **no timestamps** — stream order *is* the timeline (each PE's
events appear in its own program order, and cross-PE interleaving is
fixed by the interpreter's deterministic scheduling), which is what
makes the reference and batched backends able to produce bit-identical
streams.  The only exceptions are the synchronisation events
(``barrier``, ``epoch_begin``/``epoch_end``), which carry the machine
clock because that value is itself a backend-exact observable.

Tuples (not objects) keep emission cheap on the reference hot path and
make cross-backend comparison a plain ``==``.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: kind -> field names following the kind tag, in tuple order.
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    # -- per-reference events (one per machine.read/write outcome) --------
    "read_hit": ("pe", "array", "flat", "stale"),
    "read_miss": ("pe", "array", "flat", "local"),
    "bypass_fetch": ("pe", "array", "flat", "kind"),
    "write": ("pe", "array", "flat", "shared", "remote"),
    # -- prefetch engine ---------------------------------------------------
    "pf_issue": ("pe", "array", "line", "dtb"),
    "pf_coalesce": ("pe", "array", "line", "dtb"),
    "pf_drop": ("pe", "array", "line", "dtb"),
    "pf_complete": ("pe", "array", "flat"),
    "invalidate": ("pe", "array", "count", "reason", "lo", "hi"),
    # ``flat``/``stride`` restate the vector prefetch's *instruction*
    # (start element, element stride); ``line_lo``/``line_hi`` alone
    # cannot recover a strided install set, and the trace frontend
    # replays the instruction, not its line footprint.
    "vector_transfer": ("pe", "array", "line_lo", "line_hi", "words",
                        "flat", "stride"),
    # -- hardware coherence protocols (mesi / dir versions) ----------------
    "bus_tx": ("pe", "op", "line", "c2c"),
    "coh_wb": ("pe", "line", "reason"),
    "silent_upgrade": ("pe", "line"),
    "coh_inval": ("pe", "line", "count"),
    "dir_req": ("pe", "op", "line", "home", "msgs", "c2c", "bypass"),
    "dir_bcast": ("pe", "line", "fanout"),
    # -- synchronisation / control ----------------------------------------
    "barrier": ("time",),
    "epoch_begin": ("index", "label", "time"),
    "epoch_end": ("index", "label", "time"),
    # -- fault injection ---------------------------------------------------
    "fault_activation": ("pe", "model", "detail"),
    # -- sweep-farm lifecycle (repro.farm; one stream per farm run) --------
    "farm_lease": ("key", "attempt"),
    "farm_retry": ("key", "attempt", "delay_ms", "reason"),
    "farm_quarantine": ("key", "attempts", "reason"),
    "farm_resume": ("key", "digest"),
    "farm_done": ("key", "attempt", "cached"),
}

EVENT_KINDS = frozenset(EVENT_FIELDS)

#: ``bypass_fetch.kind`` values: why the read went around the cache.
#: ``bypass`` = compiler-marked uncacheable reference, ``uncached_*`` =
#: reference to a non-cacheable array (by home PE), ``pf_drop`` = the
#: paper's rule-2 degradation — the line's prefetch was dropped, so the
#: read must bypass to stay coherent.
BYPASS_KINDS = frozenset({"bypass", "uncached_local", "uncached_remote",
                          "pf_drop"})

#: ``invalidate.reason`` values: ``prefetch`` = invalidate-before-
#: prefetch killed a resident line, ``vector`` = vector-prefetch range
#: invalidation, ``explicit`` = standalone INVALIDATE instruction,
#: ``fault`` = eviction-storm fault injection.  ``lo``/``hi`` carry the
#: flat element range of an ``explicit`` invalidation (the replay input
#: that ``count`` — the number of lines actually killed — cannot
#: recover); the other reasons have no instruction-level range and
#: carry ``-1, -1``.
INVALIDATE_REASONS = frozenset({"prefetch", "vector", "explicit", "fault"})

#: ``farm_retry.reason`` / ``farm_quarantine.reason`` values: why the
#: failed attempt failed (mirrors ``repro.farm.jobs.FAIL_REASONS``).
FARM_FAIL_REASONS = frozenset({"error", "timeout", "crash"})

#: ``bus_tx.op`` values: the snooping-bus transaction vocabulary.
BUS_OPS = frozenset({"busrd", "busrdx", "busupgr"})

#: ``coh_wb.reason`` values: why a modified line was flushed —
#: ``evict`` = victim replacement or remote-write invalidation,
#: ``downgrade`` = M→S sharing writeback on a remote read.
WB_REASONS = frozenset({"evict", "downgrade"})

#: ``dir_req.op`` values: directory request types (read miss,
#: read-for-ownership miss, ownership upgrade of a shared copy).
DIR_OPS = frozenset({"rd", "rdx", "upgr"})

_STR_FIELDS = frozenset({"array", "kind", "reason", "label", "model",
                         "detail", "key", "digest", "op"})
_FLOAT_FIELDS = frozenset({"time"})


def validate_event(event) -> None:
    """Raise ``ValueError`` if ``event`` is not schema-conformant."""
    if not isinstance(event, tuple) or not event:
        raise ValueError(f"event must be a non-empty tuple, got {event!r}")
    kind = event[0]
    fields = EVENT_FIELDS.get(kind)
    if fields is None:
        raise ValueError(f"unknown event kind {kind!r}")
    if len(event) != 1 + len(fields):
        raise ValueError(
            f"{kind} event has {len(event) - 1} fields, schema wants "
            f"{len(fields)} ({', '.join(fields)}): {event!r}")
    for name, value in zip(fields, event[1:]):
        if name in _STR_FIELDS:
            if not isinstance(value, str):
                raise ValueError(f"{kind}.{name} must be str, got {value!r}")
        elif name in _FLOAT_FIELDS:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(
                    f"{kind}.{name} must be a number, got {value!r}")
        elif not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{kind}.{name} must be int, got {value!r}")
    if kind == "bypass_fetch" and event[4] not in BYPASS_KINDS:
        raise ValueError(f"bypass_fetch.kind {event[4]!r} not in "
                         f"{sorted(BYPASS_KINDS)}")
    if kind == "invalidate" and event[4] not in INVALIDATE_REASONS:
        raise ValueError(f"invalidate.reason {event[4]!r} not in "
                         f"{sorted(INVALIDATE_REASONS)}")
    if kind in ("farm_retry", "farm_quarantine") and \
            event[-1] not in FARM_FAIL_REASONS:
        raise ValueError(f"{kind}.reason {event[-1]!r} not in "
                         f"{sorted(FARM_FAIL_REASONS)}")
    if kind == "bus_tx" and event[2] not in BUS_OPS:
        raise ValueError(f"bus_tx.op {event[2]!r} not in {sorted(BUS_OPS)}")
    if kind == "coh_wb" and event[3] not in WB_REASONS:
        raise ValueError(f"coh_wb.reason {event[3]!r} not in "
                         f"{sorted(WB_REASONS)}")
    if kind == "dir_req" and event[2] not in DIR_OPS:
        raise ValueError(f"dir_req.op {event[2]!r} not in {sorted(DIR_OPS)}")


def event_to_dict(event) -> dict:
    """Schema-ordered dict form (JSONL serialisation)."""
    fields = EVENT_FIELDS[event[0]]
    record = {"ev": event[0]}
    record.update(zip(fields, event[1:]))
    return record


def event_from_dict(record: dict) -> tuple:
    """Inverse of :func:`event_to_dict`; raises on malformed records."""
    if not isinstance(record, dict):
        raise ValueError(f"record is not a JSON object: {record!r}")
    if "ev" not in record:
        raise ValueError(f"record has no 'ev' key: {record!r}")
    kind = record["ev"]
    fields = EVENT_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ValueError(f"unknown event kind {kind!r}")
    extra = set(record) - set(fields) - {"ev"}
    missing = [name for name in fields if name not in record]
    if extra or missing:
        raise ValueError(f"{kind} record fields mismatch: extra="
                         f"{sorted(extra)} missing={missing}: {record!r}")
    return (kind,) + tuple(record[name] for name in fields)


__all__ = ["EVENT_FIELDS", "EVENT_KINDS", "BYPASS_KINDS",
           "INVALIDATE_REASONS", "FARM_FAIL_REASONS", "BUS_OPS",
           "WB_REASONS", "DIR_OPS", "validate_event",
           "event_to_dict", "event_from_dict"]

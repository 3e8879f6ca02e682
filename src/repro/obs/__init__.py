"""Observability: machine-event tracing, metrics timeline, exporters.

The simulator's event-level instrumentation (see DESIGN.md
§observability).  A :class:`Tracer` attached via
``ExecutionConfig(tracer=...)`` receives one typed tuple per machine
event from *either* execution backend — the reference interpreter emits
per event, the batched backend synthesises the identical stream from
its bulk plans — so a trace is a backend-independent observable, pinned
by golden snapshots and cross-backend equivalence tests.
"""

from .events import (BYPASS_KINDS, EVENT_FIELDS, EVENT_KINDS,
                     INVALIDATE_REASONS, event_from_dict, event_to_dict,
                     validate_event)
from .export import (JSONLError, chrome_trace, event_to_json,
                     events_to_jsonl, iter_jsonl, read_jsonl,
                     write_chrome_trace, write_jsonl)
from .fold import (FOLDABLE_MACHINE_FIELDS, FOLDABLE_PE_FIELDS,
                   TIMING_DEPENDENT_FIELDS, fold_events, reconcile)
from .tracer import EpochPEMetrics, EpochRow, Tracer

__all__ = [
    "BYPASS_KINDS", "EVENT_FIELDS", "EVENT_KINDS", "INVALIDATE_REASONS",
    "event_from_dict", "event_to_dict", "validate_event",
    "JSONLError", "chrome_trace", "event_to_json", "events_to_jsonl",
    "iter_jsonl", "read_jsonl", "write_chrome_trace", "write_jsonl",
    "FOLDABLE_MACHINE_FIELDS", "FOLDABLE_PE_FIELDS",
    "TIMING_DEPENDENT_FIELDS", "fold_events", "reconcile",
    "EpochPEMetrics", "EpochRow", "Tracer",
]

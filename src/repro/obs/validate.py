"""Schema validation for JSONL traces (CI trace-smoke entry point).

``python -m repro.obs.validate trace.jsonl [more.jsonl ...]`` parses
every line against the event schema and exits non-zero on the first
malformed one, printing a per-kind census on success.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import List, Tuple

from .events import validate_event
from .export import iter_jsonl


def validate_file(path) -> Tuple[int, Counter]:
    """Validate one JSONL trace; returns (n_events, per-kind counts).

    Raises ``ValueError`` with the offending line number on failure."""
    counts: Counter = Counter()
    for lineno, event in iter_jsonl(path):
        try:
            validate_event(event)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        counts[event[0]] += 1
    return sum(counts.values()), counts


def main(argv: List[str] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python -m repro.obs.validate TRACE.jsonl [...]",
              file=sys.stderr)
        return 2
    for path in argv:
        try:
            n, counts = validate_file(path)
        except (OSError, ValueError) as exc:
            print(f"INVALID: {exc}", file=sys.stderr)
            return 1
        census = " ".join(f"{kind}={counts[kind]}"
                          for kind in sorted(counts))
        print(f"OK: {path}: {n} events ({census})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

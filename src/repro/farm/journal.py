"""Append-only JSONL journal: the farm's crash-safe source of truth.

Every job state transition is one JSON line appended to
``<farm_dir>/journal.jsonl``:

``lease``
    ``{"ev": "lease", "key": K, "attempt": n, "job": desc}`` — an
    attempt started.  Advisory (buffered write): losing it to a crash
    only loses bookkeeping, never a result.
``fail``
    ``{"ev": "fail", "key": K, "attempt": n, "reason": r, "error": t}``
    — attempt ``n`` failed (``reason`` in :data:`~.jobs.FAIL_REASONS`).
``retry``
    ``{"ev": "retry", "key": K, "attempt": n, "delay_ms": d}`` — attempt
    ``n`` was scheduled after a backoff of ``d`` milliseconds.
``done``
    ``{"ev": "done", "key": K, "attempt": n, "digest": sha256}`` — the
    result was durably stored.  **Committed**: written after the result
    file's atomic rename, flushed and ``fsync``\\ ed, so a ``done`` line
    that survives a ``kill -9`` always points at a verifiable result.
``quarantine``
    ``{"ev": "quarantine", "key": K, "attempts": n, "reason": r,
    "error": t}`` — the job exhausted its retry budget.  Committed
    (fsync) so resumes do not silently re-run known-poisoned cells.
``requeue``
    ``{"ev": "requeue", "key": K}`` — a quarantine was explicitly
    cleared (``--requeue-quarantined``); the key runs fresh.

Replay (:meth:`Journal.replay`) folds the lines into per-key
:class:`JobState` in order.  Durability rules make replay simple and
safe after any crash point:

* a **torn final line** (the process died mid-append) is ignored;
* any other malformed line is skipped with a warning — the journal is
  a cache of work done, so dropping a record only costs recomputation,
  never correctness;
* a ``done`` digest is a *claim*, verified against the result store
  before it is trusted (see :mod:`repro.farm.supervisor`), so a result
  file lost or corrupted out from under the journal demotes the key
  back to pending instead of poisoning the resume.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

log = logging.getLogger("repro.farm")

JOURNAL_NAME = "journal.jsonl"
RESULTS_DIR = "results"

#: journal record types (the ``ev`` field)
RECORD_EVS = frozenset({"lease", "fail", "retry", "done", "quarantine",
                        "requeue"})

#: bound per-record error text so a crash-looping cell cannot balloon
#: the journal (full tracebacks still reach the caller in-memory)
ERROR_TEXT_LIMIT = 4000


@dataclass
class JobState:
    """Folded journal state of one content key."""

    attempts: int = 0                    #: highest attempt ever leased
    digest: Optional[str] = None         #: result digest when done
    quarantined: Optional[dict] = None   #: the quarantine record, if standing
    last_error: Optional[str] = None
    last_reason: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.digest is not None


class Journal:
    """Append-only JSONL journal over one farm directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.path = self.root / JOURNAL_NAME
        self.results_root = self.root / RESULTS_DIR
        self.root.mkdir(parents=True, exist_ok=True)
        self._fh = None

    # -- writing -------------------------------------------------------
    def _handle(self):
        if self._fh is None:
            self._heal_tear()
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def _heal_tear(self) -> None:
        """Seal a torn final line before the first append of this session.

        A kill mid-append leaves a partial line with no trailing newline;
        appending straight after it would glue the next record onto the
        tear, and the merged line — no longer the *final* line once more
        records follow — would be skipped as malformed on replay, losing
        a committed record to a crash that happened *before* it.  A lone
        newline turns the tear back into an ignorable torn line."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                torn = fh.read(1) != b"\n"
        except (OSError, ValueError):
            return  # missing or empty journal: nothing to heal
        if torn:
            with open(self.path, "ab") as fh:
                fh.write(b"\n")
                fh.flush()
                os.fsync(fh.fileno())

    def append(self, record: dict, sync: bool = False) -> None:
        """Append one record; ``sync=True`` makes it a *commit* (flush +
        ``fsync``) — the durability point the resume contract rests on."""
        ev = record.get("ev")
        if ev not in RECORD_EVS:
            raise ValueError(f"unknown journal record ev: {ev!r}")
        if "error" in record and record["error"]:
            record = {**record, "error": record["error"][-ERROR_TEXT_LIMIT:]}
        fh = self._handle()
        fh.write(json.dumps({"ts": round(time.time(), 3), **record},
                            sort_keys=True, separators=(",", ":")) + "\n")
        if sync:
            fh.flush()
            os.fsync(fh.fileno())

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading -------------------------------------------------------
    def exists(self) -> bool:
        return self.path.exists()

    def records(self) -> List[dict]:
        """Parse every journal line, tolerating a torn final line (the
        ``kill -9`` artifact) and warning about any other damage."""
        if not self.path.exists():
            return []
        out: List[dict] = []
        lines = self.path.read_text(encoding="utf-8", errors="replace") \
                         .splitlines()
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines):
                    log.debug("journal %s: ignoring torn final line %d",
                              self.path, lineno)
                else:
                    log.warning("journal %s: skipping malformed line %d",
                                self.path, lineno)
                continue
            if not isinstance(record, dict) or \
                    record.get("ev") not in RECORD_EVS or "key" not in record:
                log.warning("journal %s: skipping unrecognised record at "
                            "line %d", self.path, lineno)
                continue
            out.append(record)
        return out

    def replay(self) -> Dict[str, JobState]:
        """Fold the journal into per-key :class:`JobState`, in order."""
        states: Dict[str, JobState] = {}
        for record in self.records():
            state = states.setdefault(record["key"], JobState())
            ev = record["ev"]
            if ev == "lease":
                state.attempts = max(state.attempts,
                                     int(record.get("attempt", 0)))
            elif ev == "fail":
                state.last_error = record.get("error")
                state.last_reason = record.get("reason")
            elif ev == "done":
                state.digest = record.get("digest")
                state.quarantined = None
            elif ev == "quarantine":
                state.quarantined = record
                state.last_error = record.get("error", state.last_error)
                state.last_reason = record.get("reason", state.last_reason)
            elif ev == "requeue":
                state.quarantined = None
                state.attempts = 0
        return states


__all__ = ["JOURNAL_NAME", "RESULTS_DIR", "RECORD_EVS", "JobState",
           "Journal"]

"""Prefetch hardware: the line-prefetch queue and the vector (block)
transfer engine.

The T3D prefetch queue holds a small fixed number of outstanding
prefetches (16 words on the real machine; we model line-granularity
entries with a configurable slot count).  Issuing into a full queue
**drops** the prefetch — the paper's rule is that dropped prefetches
degrade to bypass-style fetches at the use point, which falls out
naturally here because the line was invalidated before issue.

Vector transfers model SHMEM-style block gets: a pipelined bulk copy
with a startup cost, completing at a deterministic time, after which the
covered lines install into the cache on first touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .params import MachineParams


@dataclass
class PrefetchEntry:
    """One outstanding line prefetch."""

    line_addr: int
    array: str
    arrival: float
    issued_at: float
    home_pe: int


class PrefetchQueue:
    """Bounded queue of outstanding line prefetches for one PE."""

    def __init__(self, params: MachineParams) -> None:
        self.capacity = params.prefetch_queue_slots
        self.entries: List[PrefetchEntry] = []
        self.dropped = 0
        self.issued = 0
        # Deepest the queue has been since the last reset_high_water()
        # (per-epoch queue-pressure metric in the tracing timeline).
        self.high_water = 0
        # Fault-injection hook: callable(capacity) -> effective capacity for
        # this issue attempt (queue squeeze).  None means no squeezing.
        self.squeeze = None

    def issue(self, entry: PrefetchEntry) -> bool:
        """Enqueue; returns False (dropped) when the queue is full or the
        line already has an outstanding entry."""
        if any(e.line_addr == entry.line_addr for e in self.entries):
            return True  # coalesce: an outstanding prefetch already covers it
        capacity = self.capacity if self.squeeze is None \
            else min(self.capacity, self.squeeze(self.capacity))
        if len(self.entries) >= capacity:
            self.dropped += 1
            return False
        self.entries.append(entry)
        self.issued += 1
        if len(self.entries) > self.high_water:
            self.high_water = len(self.entries)
        return True

    def reset_high_water(self) -> None:
        """Start a new high-water window (epoch boundary)."""
        self.high_water = len(self.entries)

    def match(self, line_addr: int) -> Optional[PrefetchEntry]:
        for entry in self.entries:
            if entry.line_addr == line_addr:
                return entry
        return None

    def extract(self, entry: PrefetchEntry) -> None:
        self.entries.remove(entry)

    def reclaim_arrived(self, now: float) -> None:
        """Free slots whose data arrived but was never extracted (the
        hardware retires them as the processor drains the queue)."""
        self.entries = [e for e in self.entries if e.arrival > now]

    @property
    def outstanding(self) -> int:
        return len(self.entries)

    # -- batched drain (batched execution backend) ----------------------------
    def lines(self) -> np.ndarray:
        """Outstanding line addresses in queue order."""
        return np.asarray([e.line_addr for e in self.entries], dtype=np.int64)

    def snapshot(self) -> List[Tuple[int, float, float, int, str]]:
        """Queue state as plain tuples (line, arrival, issued_at, home, array)
        for consumption by the batched scan engine."""
        return [(e.line_addr, e.arrival, e.issued_at, e.home_pe, e.array)
                for e in self.entries]

    def replace_entries(self, entries: Iterable[PrefetchEntry]) -> None:
        """Install a rebuilt entry list (batched chunk commit).  Aggregate
        ``issued``/``dropped`` counters are adjusted separately by the
        caller, which tracked them during its scan."""
        self.entries = list(entries)


@dataclass
class VectorTransfer:
    """One in-flight block transfer: covers [line_lo, line_hi]."""

    array: str
    line_lo: int
    line_hi: int
    completion: float

    def covers(self, line_addr: int) -> bool:
        return self.line_lo <= line_addr <= self.line_hi


class VectorUnit:
    """Bounded set of outstanding vector transfers for one PE."""

    def __init__(self, params: MachineParams) -> None:
        self.capacity = params.max_outstanding_vectors
        self.transfers: List[VectorTransfer] = []
        self.issued = 0

    def earliest_completion(self) -> float:
        return min(t.completion for t in self.transfers)

    def reap(self, now: float) -> None:
        self.transfers = [t for t in self.transfers if t.completion > now]

    def stall_until_slot(self, now: float) -> float:
        """Time at which a new transfer can be issued (>= now)."""
        self.reap(now)
        if len(self.transfers) < self.capacity:
            return now
        return self.earliest_completion()

    def issue(self, transfer: VectorTransfer) -> None:
        if len(self.transfers) >= self.capacity:
            raise RuntimeError("vector unit full; call stall_until_slot first")
        self.transfers.append(transfer)
        self.issued += 1

    def match(self, line_addr: int) -> Optional[VectorTransfer]:
        best: Optional[VectorTransfer] = None
        for transfer in self.transfers:
            if transfer.covers(line_addr):
                if best is None or transfer.completion < best.completion:
                    best = transfer
        return best


__all__ = ["PrefetchEntry", "PrefetchQueue", "VectorTransfer", "VectorUnit"]

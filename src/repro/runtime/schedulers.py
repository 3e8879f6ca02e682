"""Iteration scheduling of DOALL loops across PEs.

Static schedules are computed up front; dynamic (self-scheduled) loops
are simulated chunk-by-chunk by the epoch executor using the greedy
earliest-clock rule, which is what a remote fetch&add counter produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class Chunk:
    """A contiguous run of iterations ``lo, lo+step, ..., <= hi``
    (empty when lo > hi for positive step)."""

    lo: int
    hi: int
    step: int = 1

    @property
    def count(self) -> int:
        if self.step > 0:
            return max(0, (self.hi - self.lo) // self.step + 1)
        return max(0, (self.lo - self.hi) // (-self.step) + 1)

    def iterations(self) -> range:
        return range(self.lo, self.hi + (1 if self.step > 0 else -1), self.step)


def iteration_values(lo: int, hi: int, step: int) -> range:
    if step == 0:
        raise ValueError("loop step cannot be zero")
    return range(lo, hi + (1 if step > 0 else -1), step)


def block_partition(lo: int, hi: int, step: int, n_pes: int) -> List[Chunk]:
    """CRAFT-style block partition: PE p gets the p-th contiguous chunk
    of ceil(trip/P) iterations.  Matches BLOCK data distribution so that
    iteration i lands on the owner of block index i."""
    values = iteration_values(lo, hi, step)
    trip = len(values)
    chunk_size = -(-trip // n_pes) if trip else 0
    chunks: List[Chunk] = []
    for p in range(n_pes):
        start = p * chunk_size
        end = min(trip, start + chunk_size)
        if start >= end:
            chunks.append(Chunk(lo=1, hi=0, step=1))  # empty
        else:
            chunks.append(Chunk(values[start], values[end - 1], step))
    return chunks


def owner_partition(lo: int, hi: int, step: int, n_pes: int,
                    owner_of: "callable") -> List[List[int]]:
    """Owner-computes partition (CRAFT ``doshared``): iteration ``v`` runs
    on ``owner_of(v)`` — the PE owning index ``v`` of the aligned array's
    distributed axis.  For BLOCK distributions the per-PE lists are
    contiguous runs."""
    out: List[List[int]] = [[] for _ in range(n_pes)]
    for value in iteration_values(lo, hi, step):
        out[owner_of(value)].append(value)
    return out


def cyclic_partition(lo: int, hi: int, step: int, n_pes: int) -> List[List[int]]:
    """Round-robin iteration assignment."""
    values = list(iteration_values(lo, hi, step))
    return [values[p::n_pes] for p in range(n_pes)]


def dynamic_chunks(lo: int, hi: int, step: int, chunk_size: int) -> List[Chunk]:
    """Split the iteration space into self-scheduling chunks."""
    values = iteration_values(lo, hi, step)
    out: List[Chunk] = []
    for start in range(0, len(values), chunk_size):
        end = min(len(values), start + chunk_size)
        out.append(Chunk(values[start], values[end - 1], step))
    return out


__all__ = ["Chunk", "iteration_values", "block_partition", "owner_partition",
           "cyclic_partition", "dynamic_chunks"]

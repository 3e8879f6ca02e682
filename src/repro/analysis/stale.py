"""Stale reference analysis (step 1 of the CCDP scheme).

Identifies *potentially-stale* read references: reads that may observe
an out-of-date cached copy because another processor wrote the data in
an earlier epoch (caches on the target machine are non-coherent and
write-through, so main memory is always current but cached lines go
stale silently).

The analysis is a forward dataflow over the epoch flow graph.  For each
shared array it accumulates three *writer-class* section sets:

``w_serial``
    sections written by serial epochs (executed on PE 0);
``w_aligned``
    sections written by owner-aligned accesses in parallel epochs
    (writer == owner of every element);
``w_other``
    sections written by possibly-non-owner accesses.

A read is potentially stale when its footprint overlaps a section whose
writer class may denote a *different* PE than the reader class:

=============  =========  ==========  ========
reader ↓ / writer →  w_serial  w_aligned   w_other
ALIGNED (owner)      stale      fresh       stale
SERIAL (PE 0)        fresh      stale       stale
other (any PE)       stale      stale       stale
=============  =========  ==========  ========

This is the conservative (no-kill) variant of the Choi–Yew analysis:
writes only ever *add* staleness, which is sound — over-approximating
the stale set costs extra prefetches, never correctness.  Cold caches
make the initial state empty, so first-touch reads are never stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ir.program import Program
from .alignment import AccessClass
from .epochs import Epoch, EpochGraph, RefInfo, build_epoch_graph
from .sections import SectionSet


@dataclass
class ArrayState:
    """Per-array accumulated writer-class sections."""

    w_serial: SectionSet
    w_aligned: SectionSet
    w_other: SectionSet

    @staticmethod
    def empty(array: str) -> "ArrayState":
        return ArrayState(SectionSet(array), SectionSet(array), SectionSet(array))

    def copy(self) -> "ArrayState":
        return ArrayState(self.w_serial.copy(), self.w_aligned.copy(), self.w_other.copy())

    def union(self, other: "ArrayState") -> bool:
        changed = self.w_serial.union(other.w_serial)
        changed |= self.w_aligned.union(other.w_aligned)
        changed |= self.w_other.union(other.w_other)
        return changed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArrayState):
            return NotImplemented
        return (self.w_serial == other.w_serial
                and self.w_aligned == other.w_aligned
                and self.w_other == other.w_other)


class FlowState:
    """Dataflow fact: ArrayState per shared array."""

    def __init__(self) -> None:
        self.arrays: Dict[str, ArrayState] = {}

    def state_for(self, array: str) -> ArrayState:
        if array not in self.arrays:
            self.arrays[array] = ArrayState.empty(array)
        return self.arrays[array]

    def copy(self) -> "FlowState":
        fresh = FlowState()
        fresh.arrays = {k: v.copy() for k, v in self.arrays.items()}
        return fresh

    def union(self, other: "FlowState") -> bool:
        changed = False
        for array, state in other.arrays.items():
            changed |= self.state_for(array).union(state)
        return changed


def _read_is_stale(read: RefInfo, state: ArrayState) -> bool:
    klass = read.alignment.klass
    footprint = read.section
    if klass == AccessClass.ALIGNED:
        return state.w_serial.overlaps(footprint) or state.w_other.overlaps(footprint)
    if klass == AccessClass.SERIAL:
        return state.w_aligned.overlaps(footprint) or state.w_other.overlaps(footprint)
    return (state.w_serial.overlaps(footprint)
            or state.w_aligned.overlaps(footprint)
            or state.w_other.overlaps(footprint))


def _apply_writes(epoch: Epoch, state: FlowState) -> None:
    for write in epoch.writes:
        if not write.decl.is_shared:
            continue
        array_state = state.state_for(write.decl.name)
        klass = write.alignment.klass
        if klass == AccessClass.SERIAL:
            array_state.w_serial.add(write.section)
        elif klass == AccessClass.ALIGNED:
            array_state.w_aligned.add(write.section)
        else:
            array_state.w_other.add(write.section)


@dataclass
class StaleAnalysisResult:
    """Outcome of stale reference analysis.

    ``stale_reads`` maps reference uid -> :class:`RefInfo` for every
    potentially-stale read occurrence; this set is the input ``P`` of the
    paper's prefetch target analysis (Fig. 1).
    """

    graph: EpochGraph
    stale_reads: Dict[int, RefInfo] = field(default_factory=dict)
    fresh_reads: Dict[int, RefInfo] = field(default_factory=dict)
    epoch_in_states: Dict[int, FlowState] = field(default_factory=dict)
    iterations: int = 0

    def stale_in_epoch(self, epoch_id: int) -> List[RefInfo]:
        return [info for info in self.stale_reads.values() if info.epoch_id == epoch_id]

    def summary(self) -> str:
        by_array: Dict[str, int] = {}
        for info in self.stale_reads.values():
            by_array[info.decl.name] = by_array.get(info.decl.name, 0) + 1
        total = len(self.stale_reads) + len(self.fresh_reads)
        parts = [f"{len(self.stale_reads)}/{total} shared reads potentially stale"]
        parts += [f"{name}: {count}" for name, count in sorted(by_array.items())]
        return "; ".join(parts)


def analyse_stale_references(program: Program,
                             graph: Optional[EpochGraph] = None) -> StaleAnalysisResult:
    """Run stale reference analysis; returns per-reference verdicts.

    The dataflow iterates to a fixpoint (needed for region-loop back
    edges — a write in a later epoch of a time loop makes reads in an
    earlier epoch stale on the next time step).
    """
    if graph is None:
        graph = build_epoch_graph(program)
    result = StaleAnalysisResult(graph=graph)

    in_states: Dict[int, FlowState] = {e.id: FlowState() for e in graph.epochs}
    out_states: Dict[int, FlowState] = {e.id: FlowState() for e in graph.epochs}

    # Worklist dataflow to fixpoint; the lattice is finite-height in
    # practice because SectionSet unions saturate at the rectangular hull.
    worklist = [e.id for e in graph.epochs]
    iterations = 0
    max_iterations = 50 * max(1, len(graph.epochs))
    while worklist:
        iterations += 1
        if iterations > max_iterations:  # pragma: no cover - safety net
            break
        epoch_id = worklist.pop(0)
        epoch = graph.epoch(epoch_id)
        in_state = FlowState()
        for pred in graph.preds[epoch_id]:
            in_state.union(out_states[pred])
        in_states[epoch_id] = in_state
        new_out = in_state.copy()
        _apply_writes(epoch, new_out)
        # Monotone update: grow the stored OUT by the recomputed one;
        # successors re-run only when the OUT actually gained facts.
        grew = out_states[epoch_id].union(new_out)
        if grew or iterations <= len(graph.epochs):
            for succ in graph.succs[epoch_id]:
                if succ not in worklist:
                    worklist.append(succ)

    result.epoch_in_states = in_states
    result.iterations = iterations

    for epoch in graph.epochs:
        state = in_states[epoch.id]
        for read in epoch.reads:
            if not read.decl.is_shared:
                continue
            if _read_is_stale(read, state.state_for(read.decl.name)):
                result.stale_reads[read.uid] = read
            else:
                result.fresh_reads[read.uid] = read
    return result


__all__ = ["ArrayState", "FlowState", "StaleAnalysisResult",
           "analyse_stale_references"]

"""Loop volume estimation.

The paper notes that exploiting self/group-temporal locality "would
require additional compiler analyses ... such as the estimation of loop
volume": a reference whose data is re-touched before the loop has pulled
more data through the cache than the cache holds will still be resident,
so prefetching it again is wasted work.

This module estimates the *volume* — distinct cache lines touched — of
one iteration of a loop and of a whole loop execution, from the affine
footprints of its references.  The CCDP driver uses it in the non-stale
prefetching extension (`prefetch_nonstale`) to skip candidates whose
reuse distance fits in the cache; the coherence-critical stale targets
are never pruned this way (a resident line is exactly what may be
stale).

Estimates are conservative in the *prefetch-more* direction: unknown
trip counts and non-affine references round the volume up, so pruning
only happens when residency is actually plausible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ir.expr import ArrayRef
from ..ir.loops import static_trip_count
from ..ir.stmt import Loop
from ..machine.params import MachineParams
from .affine import AffineRef, affine_ref

#: Trip count assumed for loops with unknown bounds (rounds volume up).
UNKNOWN_TRIP = 1 << 16


@dataclass
class VolumeEstimate:
    """Estimated cache-line traffic of one loop."""

    lines_per_iteration: float   #: distinct lines touched per iteration
    trip: int                    #: trip count used (UNKNOWN_TRIP if unknown)
    refs: int                    #: affine references counted
    nonaffine_refs: int          #: references widened to full lines/iter

    @property
    def total_lines(self) -> float:
        return self.lines_per_iteration * self.trip

    def fits_in(self, params: MachineParams, fraction: float = 1.0) -> bool:
        """Would one full execution's footprint stay resident in the
        cache?  Only meaningful for direct-mapped caches as a heuristic —
        conflicts can evict earlier, which is why callers use it for
        optimisation pruning, never for correctness."""
        return self.total_lines <= params.n_lines * fraction


def _ref_lines_per_iter(aref: Optional[AffineRef], var: str,
                        params: MachineParams) -> float:
    """Fresh cache lines one reference pulls per iteration of ``var``."""
    if aref is None:
        return 1.0  # non-affine: assume a new line every iteration
    stride = abs(aref.address.coeff(var))
    if stride == 0:
        return 0.0  # invariant: one line for the whole loop (amortised ~0)
    return min(1.0, stride / params.line_words)


def loop_volume(loop: Loop, arrays: Dict[str, "object"],
                params: MachineParams) -> VolumeEstimate:
    """Estimate the line volume of one (innermost) loop.

    ``arrays`` maps array name -> declaration (for affine address forms).
    Distinct references to the same line group are merged through their
    uniformly-generated classes: members of one class whose constant
    offsets fall within a line are counted once.
    """
    trip = static_trip_count(loop)
    if trip is None:
        trip = UNKNOWN_TRIP

    per_iter = 0.0
    refs = 0
    nonaffine = 0
    seen_classes: List[AffineRef] = []
    for stmt in loop.walk():
        for expr in stmt.expressions():
            for node in expr.walk():
                if not isinstance(node, ArrayRef):
                    continue
                decl = arrays.get(node.array)
                if decl is None:
                    continue
                refs += 1
                aref = affine_ref(node, decl)  # type: ignore[arg-type]
                if aref is None:
                    nonaffine += 1
                    per_iter += 1.0
                    continue
                duplicate = any(
                    aref.uniformly_generated_with(other)
                    and abs(aref.address.const - other.address.const)
                    < params.line_words
                    for other in seen_classes)
                if duplicate:
                    continue
                seen_classes.append(aref)
                per_iter += _ref_lines_per_iter(aref, loop.var, params)
    return VolumeEstimate(lines_per_iteration=per_iter, trip=trip,
                          refs=refs, nonaffine_refs=nonaffine)


def reuse_stays_resident(loop: Loop, arrays: Dict[str, "object"],
                         params: MachineParams,
                         fraction: float = 0.5) -> bool:
    """True when the loop's whole footprint plausibly fits in ``fraction``
    of the cache — i.e. temporal reuse across iterations will hit without
    help, and latency-only prefetching would be wasted."""
    return loop_volume(loop, arrays, params).fits_in(params, fraction)


__all__ = ["VolumeEstimate", "loop_volume", "reuse_stays_resident",
           "UNKNOWN_TRIP"]

"""Data-reuse (locality) analysis for prefetch target selection.

Implements the reuse classification the paper's prefetch target
analysis relies on:

* **Uniformly generated** references — same array, identical affine
  index coefficients, differing only in the constant term.
* **Group-spatial** reuse — uniformly generated references whose
  constant address offsets fall within one cache line ("the compiler can
  perform mapping calculations to determine whether these addresses are
  mapped onto the same cache line").  Only the *leading* reference of a
  group needs a prefetch; trailing references become normal reads that
  hit the freshly-fetched line.
* **Self-spatial** reuse — a reference whose innermost stride is smaller
  than the line, so consecutive iterations share lines.
* **Self-temporal** reuse — a reference invariant in the innermost loop.

The leading reference is the one that touches a new cache line first as
the innermost loop advances: the largest constant offset for a positive
stride, the smallest for a negative stride.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .epochs import RefInfo


@dataclass
class ReuseInfo:
    """Self-reuse classification of one reference in its inner loop."""

    ref: RefInfo
    stride_elems: int          #: address delta per innermost iteration
    self_spatial: bool
    self_temporal: bool


@dataclass
class PrefetchGroup:
    """A group-spatial equivalence class inside one LSC.

    ``leading`` is the reference to prefetch; ``trailing`` are issued as
    normal reads.  ``span_elems`` is the constant-offset span of the
    group (used by the scheduler to size the warm-up prefetch that keeps
    trailing references coherent before the leading pipeline fills)."""

    leading: RefInfo
    trailing: List[RefInfo] = field(default_factory=list)
    stride_elems: int = 0
    span_elems: int = 0

    @property
    def members(self) -> List[RefInfo]:
        return [self.leading] + self.trailing

    def describe(self) -> str:
        names = ", ".join(repr(m.ref) for m in self.members)
        return f"group[{names}] leading={self.leading.ref!r} stride={self.stride_elems}"


def innermost_stride(info: RefInfo, inner_var: Optional[str]) -> Optional[int]:
    """Element stride of the reference per innermost-loop iteration;
    ``None`` for non-affine references."""
    if info.aref is None:
        return None
    if inner_var is None:
        return 0
    return info.aref.address.coeff(inner_var)


def classify_self_reuse(info: RefInfo, inner_var: Optional[str],
                        line_elems: int) -> Optional[ReuseInfo]:
    stride = innermost_stride(info, inner_var)
    if stride is None:
        return None
    return ReuseInfo(
        ref=info,
        stride_elems=stride,
        self_spatial=0 < abs(stride) < line_elems,
        self_temporal=stride == 0,
    )


def group_spatial_groups(refs: Sequence[RefInfo], inner_var: Optional[str],
                         line_elems: int) -> Tuple[List[PrefetchGroup], List[RefInfo]]:
    """Partition references into group-spatial prefetch groups.

    Returns ``(groups, nonaffine)``: non-affine references cannot be
    analysed and are returned separately (the paper conservatively keeps
    them as prefetch targets).

    Two references group together when they are uniformly generated and
    their constant address offsets differ by less than one cache line.
    """
    nonaffine: List[RefInfo] = [r for r in refs if r.aref is None]
    affine: List[RefInfo] = [r for r in refs if r.aref is not None]

    # Bucket by uniformly-generated shape (array + coefficient vectors).
    buckets: Dict[tuple, List[RefInfo]] = {}
    for info in affine:
        aref = info.aref
        assert aref is not None
        shape_key = (aref.array,
                     tuple(d.coeffs for d in aref.dims),
                     tuple(d.sym_coeffs for d in aref.dims),
                     aref.address.coeffs, aref.address.sym_coeffs)
        buckets.setdefault(shape_key, []).append(info)

    groups: List[PrefetchGroup] = []
    for bucket in buckets.values():
        bucket.sort(key=lambda r: r.aref.address.const)  # type: ignore[union-attr]
        stride = innermost_stride(bucket[0], inner_var) or 0
        if abs(stride) >= line_elems:
            # Large strides leave uncovered lines between consecutive
            # leading prefetches, so trailing references could not safely
            # piggyback; keep every reference as its own target.
            clusters: List[List[RefInfo]] = [[info] for info in bucket]
        else:
            # Chain-cluster by constant offset: refs within a line of the
            # previous member share its group.
            current: List[RefInfo] = [bucket[0]]
            clusters = [current]
            for info in bucket[1:]:
                prev_const = current[-1].aref.address.const  # type: ignore[union-attr]
                if info.aref.address.const - prev_const < line_elems:  # type: ignore[union-attr]
                    current.append(info)
                else:
                    current = [info]
                    clusters.append(current)
        for cluster in clusters:
            consts = [r.aref.address.const for r in cluster]  # type: ignore[union-attr]
            if stride >= 0:
                leading = cluster[-1]  # largest offset touches new lines first
            else:
                leading = cluster[0]
            trailing = [r for r in cluster if r is not leading]
            groups.append(PrefetchGroup(
                leading=leading, trailing=trailing, stride_elems=stride,
                span_elems=max(consts) - min(consts)))
    return groups, nonaffine


__all__ = ["ReuseInfo", "PrefetchGroup", "innermost_stride",
           "classify_self_reuse", "group_spatial_groups"]

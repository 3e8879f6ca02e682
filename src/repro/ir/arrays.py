"""Array declarations and data distributions.

The paper distributes each shared matrix across the PEs' local memories
with a BLOCK distribution (columns of the matrices, i.e. the last
dimension of a column-major Fortran array) so that a PE's portion is
contiguous.  Private (replicated) arrays and scalars live in every PE's
local memory and never participate in coherence.

Arrays use Fortran conventions: **column-major** storage and **1-based**
subscripts.  Every array is aligned to a cache-line boundary, which the
paper requires for the prefetch-target mapping calculations to be exact
("the arrays should be stored starting at the beginning of a cache
line ... enforced by specifying a compiler option").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

from .dtypes import DType, REAL


class DistKind:
    BLOCK = "block"            #: contiguous chunks of one axis across PEs
    CYCLIC = "cyclic"          #: round-robin elements of one axis across PEs
    REPLICATED = "replicated"  #: private copy on every PE (not shared)


@dataclass(frozen=True)
class Distribution:
    """How one array is laid out across PEs.

    ``axis`` is the distributed dimension (0-based); ignored for
    REPLICATED.  The default matches the paper: BLOCK on the last axis.
    """

    kind: str = DistKind.BLOCK
    axis: int = -1

    def __post_init__(self) -> None:
        if self.kind not in (DistKind.BLOCK, DistKind.CYCLIC, DistKind.REPLICATED):
            raise ValueError(f"unknown distribution kind {self.kind!r}")


BLOCK_LAST = Distribution(DistKind.BLOCK, -1)
REPLICATED = Distribution(DistKind.REPLICATED)


@dataclass
class ArrayDecl:
    """Declaration of an array in the program.

    Attributes
    ----------
    name:
        Unique array name.
    shape:
        Concrete extents per dimension (Fortran: first extent varies
        fastest in memory).
    dtype:
        Element type.
    dist:
        Data distribution.  ``REPLICATED`` arrays are private; anything
        else is shared and participates in coherence.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: DType = REAL
    dist: Distribution = field(default_factory=lambda: BLOCK_LAST)

    def __post_init__(self) -> None:
        self.shape = tuple(int(s) for s in self.shape)
        if not self.shape or any(s <= 0 for s in self.shape):
            raise ValueError(f"array {self.name}: invalid shape {self.shape}")
        axis = self.dist.axis
        if self.dist.kind != DistKind.REPLICATED:
            if not (-len(self.shape) <= axis < len(self.shape)):
                raise ValueError(f"array {self.name}: distribution axis {axis} out of range")

    # -- geometry --------------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.size

    @property
    def is_shared(self) -> bool:
        return self.dist.kind != DistKind.REPLICATED

    @property
    def dist_axis(self) -> int:
        """Distribution axis normalised to a non-negative index."""
        axis = self.dist.axis
        return axis % self.rank if self.dist.kind != DistKind.REPLICATED else -1

    def strides(self) -> Tuple[int, ...]:
        """Column-major element strides (in elements, not bytes)."""
        strides = []
        acc = 1
        for extent in self.shape:
            strides.append(acc)
            acc *= extent
        return tuple(strides)

    def linear_index(self, indices: Sequence[int]) -> int:
        """0-based linear element offset of 1-based ``indices``."""
        if len(indices) != self.rank:
            raise ValueError(f"array {self.name}: rank {self.rank} ref with {len(indices)} subscripts")
        offset = 0
        for idx, extent, stride in zip(indices, self.shape, self.strides()):
            i0 = int(idx) - 1
            if not (0 <= i0 < extent):
                raise IndexError(f"array {self.name}: subscript {idx} out of bounds 1..{extent}")
            offset += i0 * stride
        return offset

    # -- ownership --------------------------------------------------------
    def block_size(self, n_pes: int) -> int:
        """Elements of the distributed axis owned per PE (BLOCK, ceil)."""
        extent = self.shape[self.dist_axis]
        return -(-extent // n_pes)

    def owner_of_axis_index(self, axis_index_1based: int, n_pes: int) -> int:
        """PE that owns the given 1-based index of the distributed axis."""
        if self.dist.kind == DistKind.REPLICATED:
            raise ValueError(f"array {self.name} is replicated; no single owner")
        i0 = int(axis_index_1based) - 1
        if self.dist.kind == DistKind.BLOCK:
            return min(i0 // self.block_size(n_pes), n_pes - 1)
        return i0 % n_pes  # CYCLIC

    def owner(self, indices: Sequence[int], n_pes: int) -> int:
        """PE owning the element with the given 1-based subscripts."""
        return self.owner_of_axis_index(indices[self.dist_axis], n_pes)

    def owned_axis_range(self, pe: int, n_pes: int) -> Tuple[int, int]:
        """1-based inclusive (lo, hi) of the distributed-axis indices PE
        ``pe`` owns under BLOCK; empty ranges return (1, 0)."""
        if self.dist.kind != DistKind.BLOCK:
            raise ValueError("owned_axis_range is only defined for BLOCK")
        b = self.block_size(n_pes)
        extent = self.shape[self.dist_axis]
        lo = pe * b + 1
        hi = min((pe + 1) * b, extent)
        if pe == n_pes - 1:
            hi = extent
        if lo > extent:
            return (1, 0)
        return (lo, hi)


__all__ = ["ArrayDecl", "Distribution", "DistKind", "BLOCK_LAST", "REPLICATED"]

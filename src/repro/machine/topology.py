"""3-D torus interconnect topology.

The Cray T3D arranges PEs in a 3-D torus; remote access cost grows with
the hop distance between the requesting and the home PE.  We embed
``n_pes`` into a near-cubic box (powers of two split greedily across the
three axes, matching real T3D configurations: 32 PEs = 4x4x2 etc.) and
measure wrap-around Manhattan distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Tuple

import numpy as np


def torus_shape(n_pes: int) -> Tuple[int, int, int]:
    """A balanced (x, y, z) box with ``x*y*z == n_pes``.

    Works for any positive count (not just powers of two): factors are
    peeled off largest-axis-first to keep the box near-cubic.
    """
    if n_pes < 1:
        raise ValueError("n_pes must be >= 1")
    dims = [1, 1, 1]
    remaining = n_pes
    factor = 2
    factors = []
    while remaining > 1:
        while remaining % factor == 0:
            factors.append(factor)
            remaining //= factor
        factor += 1
    for f in sorted(factors, reverse=True):
        dims[dims.index(min(dims))] *= f
    dims.sort(reverse=True)
    return (dims[0], dims[1], dims[2])


@dataclass(frozen=True)
class Torus:
    """Hop-distance oracle for a fixed PE count."""

    n_pes: int
    shape: Tuple[int, int, int]

    @staticmethod
    def for_pes(n_pes: int, shape: Tuple[int, int, int] = None) -> "Torus":
        return Torus(n_pes, shape or torus_shape(n_pes))

    def coords(self, pe: int) -> Tuple[int, int, int]:
        if not (0 <= pe < self.n_pes):
            raise ValueError(f"PE {pe} out of range 0..{self.n_pes - 1}")
        x_dim, y_dim, z_dim = self.shape
        return (pe % x_dim, (pe // x_dim) % y_dim, pe // (x_dim * y_dim))

    @cached_property
    def _hop_rows(self):
        """:meth:`hop_matrix` as nested lists, built once per torus."""
        return self.hop_matrix().tolist()

    def hops(self, src: int, dst: int) -> int:
        """Wrap-around Manhattan distance between two PEs."""
        n = self.n_pes
        if not (0 <= src < n and 0 <= dst < n):
            bad = dst if 0 <= src < n else src
            raise ValueError(f"PE {bad} out of range 0..{n - 1}")
        return self._hop_rows[src][dst]

    def hop_matrix(self) -> np.ndarray:
        """(n_pes, n_pes) matrix of hop counts (vectorised-engine input)."""
        coords = np.array([self.coords(p) for p in range(self.n_pes)])
        shape = np.array(self.shape)
        delta = np.abs(coords[:, None, :] - coords[None, :, :])
        wrapped = np.minimum(delta, shape[None, None, :] - delta)
        return wrapped.sum(axis=2).astype(np.int64)

    def mean_hops(self) -> float:
        """Average hop count over distinct PE pairs (capacity planning)."""
        if self.n_pes == 1:
            return 0.0
        matrix = self.hop_matrix()
        return float(matrix.sum() / (self.n_pes * (self.n_pes - 1)))


@lru_cache(maxsize=64)
def torus_for(n_pes: int) -> Torus:
    return Torus.for_pes(n_pes)


__all__ = ["Torus", "torus_shape", "torus_for"]

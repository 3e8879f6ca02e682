"""Global address map: arrays -> word addresses -> home PEs.

The T3D presents a global, physically-distributed address space: every
word has a *home* PE whose local DRAM holds it.  We lay arrays out
consecutively in a global word-addressed space, each array aligned to a
cache-line boundary (the paper requires line-aligned arrays for the
prefetch-target mapping calculations; the runtime relies on the same
property).

Shared arrays must have word-sized elements (the T3D prefetch unit moves
64-bit words); narrower element types are allowed for private arrays
only.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..ir.arrays import ArrayDecl, DistKind
from ..ir.dtypes import WORD_BYTES
from .params import MachineParams


def layout_bases(arrays: Iterable[ArrayDecl], line_words: int) -> Tuple[Dict[str, int], int]:
    """Line-aligned base word address per array, plus the total extent.

    The single source of truth for the global layout: :class:`AddressMap`
    and :class:`~repro.machine.memory.Memory` both derive their bases from
    it, so flat global addresses index memory's backing store directly.
    """
    bases: Dict[str, int] = {}
    cursor = line_words  # keep address 0 unused (debug aid)
    for decl in arrays:
        bases[decl.name] = cursor
        cursor += _round_up(decl.size, line_words)
    return bases, cursor


class AddressMap:
    """Assigns line-aligned global word addresses to every array and
    answers ownership queries."""

    def __init__(self, arrays: Iterable[ArrayDecl], params: MachineParams) -> None:
        self.params = params
        self.decls: Dict[str, ArrayDecl] = {}
        decls = list(arrays)
        for decl in decls:
            if decl.is_shared and decl.dtype.size != WORD_BYTES:
                raise ValueError(
                    f"shared array {decl.name}: element size must be one word "
                    f"({WORD_BYTES} bytes) on this machine")
            self.decls[decl.name] = decl
        self.bases, self.total_words = layout_bases(decls, params.line_words)
        self._owner_cache: Dict[str, np.ndarray] = {}
        self._owner_plane: Optional[np.ndarray] = None

    # -- address arithmetic ---------------------------------------------------
    def base(self, name: str) -> int:
        return self.bases[name]

    def addr(self, name: str, flat: int) -> int:
        """Global word address of a flat (0-based, column-major) element."""
        return self.bases[name] + flat

    # -- ownership -----------------------------------------------------------------
    def owner_table(self, name: str) -> np.ndarray:
        """Per-element home PE for one array (cached, flat column-major).

        Private arrays have no single home; callers must special-case
        them (each PE holds its own copy locally)."""
        if name in self._owner_cache:
            return self._owner_cache[name]
        decl = self.decls[name]
        n_pes = self.params.n_pes
        if not decl.is_shared:
            raise ValueError(f"array {decl.name} is private; ownership is per-PE")
        axis = decl.dist_axis
        stride = 1
        for extent in decl.shape[:axis]:
            stride *= extent
        flat = np.arange(decl.size, dtype=np.int64)
        axis_index = (flat // stride) % decl.shape[axis]  # 0-based
        if decl.dist.kind == DistKind.BLOCK:
            block = decl.block_size(n_pes)
            owners = np.minimum(axis_index // block, n_pes - 1)
        else:  # CYCLIC
            owners = axis_index % n_pes
        owners = owners.astype(np.int16)
        self._owner_cache[name] = owners
        return owners

    def owner_plane(self) -> np.ndarray:
        """Home PE of every global word address (cached); -1 outside
        shared arrays."""
        if self._owner_plane is None:
            plane = np.full(self.total_words, -1, dtype=np.int16)
            for name, decl in self.decls.items():
                if decl.is_shared:
                    base = self.bases[name]
                    plane[base:base + decl.size] = self.owner_table(name)
            self._owner_plane = plane
        return self._owner_plane

    def owner(self, name: str, flat: int) -> int:
        return int(self.owner_table(name)[flat])

    def is_local(self, name: str, flat: int, pe: int) -> bool:
        decl = self.decls[name]
        if not decl.is_shared:
            return True
        return self.owner(name, flat) == pe

    # -- layout introspection (debugging / reports) ---------------------------------
    def layout(self) -> List[Tuple[str, int, int]]:
        """(name, base, words) per array, ascending base."""
        return sorted(((name, base, self.decls[name].size)
                       for name, base in self.bases.items()), key=lambda t: t[1])

    def array_at(self, addr: int) -> Optional[str]:
        for name, base, words in self.layout():
            if base <= addr < base + words:
                return name
        return None


def _round_up(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


__all__ = ["AddressMap"]

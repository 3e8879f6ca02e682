"""Distributed main memory: values plus per-word versions.

Memory is the coherence ground truth.  Caches are write-through, so
memory always holds the current value of every word; staleness lives
only in caches.  Every word carries a monotonically increasing version
number, bumped on each write — the coherence checker compares cached
versions against memory versions to detect stale reads *exactly*.

Private (replicated) arrays hold one copy per PE and never go stale.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from ..ir.arrays import ArrayDecl
from .addressing import layout_bases
from .params import MachineParams


class Memory:
    """Value + version store for all program arrays.

    Shared arrays live in one flat global backing store (``values_flat`` /
    ``versions_flat``) laid out by :func:`~repro.machine.addressing.layout_bases`
    — the same layout :class:`~repro.machine.addressing.AddressMap` uses, so a
    global word address indexes the backing store directly.  The per-array
    ``values`` / ``versions`` dicts hold *views* into the backing store, which
    keeps every scalar-path accessor below unchanged while letting the batched
    backend gather/scatter whole traces in single NumPy operations.
    """

    def __init__(self, arrays: Iterable[ArrayDecl], params: MachineParams) -> None:
        self.params = params
        self.decls: Dict[str, ArrayDecl] = {}
        self.values: Dict[str, np.ndarray] = {}
        self.versions: Dict[str, np.ndarray] = {}
        self.private_values: Dict[str, np.ndarray] = {}
        # Fault-injection state (set by Machine when a FaultPlan is active):
        # remote accesses route their latency through remote_latency() so
        # network jitter and transient remote failures (retry/backoff) apply.
        self.faults = None
        # Coherence oracle (set by Machine when enabled): notified of bulk
        # re-initialisations so its shadow tracks set_array.
        self.oracle = None
        decls = list(arrays)
        self.bases, self.total_words = layout_bases(decls, params.line_words)
        self.values_flat = np.zeros(self.total_words, dtype=np.float64)
        self.versions_flat = np.zeros(self.total_words, dtype=np.int64)
        for decl in decls:
            self.decls[decl.name] = decl
            if decl.is_shared:
                base = self.bases[decl.name]
                self.values[decl.name] = self.values_flat[base:base + decl.size]
                self.versions[decl.name] = self.versions_flat[base:base + decl.size]
            else:
                self.private_values[decl.name] = np.zeros(
                    (params.n_pes, decl.size), dtype=np.float64)

    # -- shared arrays --------------------------------------------------------
    def read(self, name: str, flat: int) -> float:
        return float(self.values[name][flat])

    def read_with_version(self, name: str, flat: int):
        return float(self.values[name][flat]), int(self.versions[name][flat])

    def write(self, name: str, flat: int, value: float) -> int:
        """Write one word; returns its new version."""
        self.values[name][flat] = value
        self.versions[name][flat] += 1
        return int(self.versions[name][flat])

    def version(self, name: str, flat: int) -> int:
        return int(self.versions[name][flat])

    # -- fault-aware timing ----------------------------------------------------
    def remote_latency(self, pe_id: int, base: float) -> float:
        """Latency of a remote access with base cost ``base`` cycles.

        Without faults this is the identity.  With an active
        :class:`~repro.faults.state.FaultState` it adds network jitter
        and transient-failure retry/backoff penalties — purely timing,
        never values: a failed remote access is retried until it
        succeeds, so the data returned is always the current memory
        word."""
        if self.faults is None:
            return base
        return base + self.faults.remote_penalty(pe_id, base)

    # -- private arrays ---------------------------------------------------------
    def read_private(self, name: str, pe: int, flat: int) -> float:
        return float(self.private_values[name][pe, flat])

    def write_private(self, name: str, pe: int, flat: int, value: float) -> None:
        self.private_values[name][pe, flat] = value

    # -- batched access (batched execution backend) ---------------------------
    def scatter(self, name: str, flats: np.ndarray, values: np.ndarray) -> None:
        """Bulk write-through: store ``values`` and bump one version per
        element write (duplicate indices bump once per occurrence, matching
        a sequence of scalar :meth:`write` calls; the stored value is the
        last occurrence's, as NumPy fancy assignment applies in order)."""
        self.values[name][flats] = values
        np.add.at(self.versions[name], flats, 1)

    # -- bulk access (initialisation, result extraction, fast engine) -------------
    def array_view(self, name: str) -> np.ndarray:
        """Column-major (Fortran-order) ndarray view of a shared array."""
        decl = self.decls[name]
        return self.values[name].reshape(decl.shape, order="F")

    def set_array(self, name: str, data: np.ndarray) -> None:
        """Bulk-initialise a shared array (bumps versions once)."""
        decl = self.decls[name]
        flat = np.asarray(data, dtype=np.float64).reshape(decl.size, order="F")
        self.values[name][:] = flat
        self.versions[name] += 1
        if self.oracle is not None:
            self.oracle.observe_fill(name, flat)

    def snapshot(self) -> Dict[str, np.ndarray]:
        """Copies of all shared arrays (oracle comparison in tests)."""
        return {name: self.array_view(name).copy() for name in self.values}


__all__ = ["Memory"]

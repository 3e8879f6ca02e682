"""Cray T3D-class machine model: non-coherent write-through caches,
distributed memory over a 3-D torus, DTB-Annex prefetch queue, and a
SHMEM-style vector transfer engine — with an exact stale-read checker.
"""

from .addressing import AddressMap
from .cache import DirectMappedCache
from .machine import Machine, StaleReadError
from .memory import Memory
from .oracle import CoherenceOracle, StaleReadViolation
from .params import MachineParams, sequential_params, t3d
from .pe import PE
from .prefetchq import PrefetchEntry, PrefetchQueue, VectorTransfer, VectorUnit
from .stats import MachineStats, PEStats
from .topology import Torus, torus_for, torus_shape

__all__ = [
    "AddressMap", "DirectMappedCache", "Machine", "StaleReadError", "Memory",
    "CoherenceOracle", "StaleReadViolation",
    "MachineParams", "t3d", "sequential_params", "PE",
    "PrefetchEntry", "PrefetchQueue", "VectorTransfer", "VectorUnit",
    "MachineStats", "PEStats", "Torus", "torus_for", "torus_shape",
]

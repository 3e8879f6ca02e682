"""Machine parameter sets.

The defaults model a Cray T3D-class PE: a 150 MHz Alpha 21064 with an
8 KB direct-mapped write-through data cache (32-byte lines, no write
allocate), local DRAM, a 3-D torus interconnect to remote PEs' memories,
a DTB-Annex-mediated prefetch unit with a 16-slot prefetch queue, and a
SHMEM-style block-transfer engine for vector prefetches.

All costs are in processor clock cycles.  Absolute values are published
T3D magnitudes (Arpaci et al. ISCA'95; Numrich's T3D address-space
report); the reproduction depends on their *ratios* (remote ≫ local ≫
hit), which are faithful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..ir.dtypes import WORD_BYTES


@dataclass(frozen=True)
class MachineParams:
    """Complete description of the simulated multiprocessor."""

    n_pes: int = 8

    # -- data cache (per PE) ------------------------------------------------
    cache_bytes: int = 8192
    line_bytes: int = 32

    # -- memory/network latencies (cycles) -----------------------------------
    cache_hit: int = 2
    local_mem: int = 22          #: local DRAM read (fill one line)
    uncached_local_read: int = 5  #: uncached local word read (DRAM page-mode
    #: streaming makes these cheaper than a full line fill)
    remote_base: int = 100       #: remote read, 0-hop component
    remote_per_hop: int = 3
    write_local: int = 3         #: write-through, buffered local store
    write_remote_base: int = 28  #: remote store (buffered, no reply wait)
    write_remote_per_hop: int = 1

    # -- prefetch hardware ------------------------------------------------------
    prefetch_issue: int = 7        #: issue a line prefetch (queue interaction)
    dtb_setup: int = 14            #: DTB Annex entry setup on target-PE change
    prefetch_extract: int = 5      #: extract an arrived word/line from queue
    prefetch_queue_slots: int = 16
    vector_startup: int = 80       #: SHMEM-style block transfer startup
    vector_per_word: float = 0.4   #: pipelined transfer, cycles per word
    max_outstanding_vectors: int = 2

    # -- arithmetic/control costs -----------------------------------------------
    flop_add: int = 4
    flop_mul: int = 4
    flop_div: int = 30
    intrinsic_cost: int = 40
    int_op: int = 1
    loop_overhead: int = 2       #: per-iteration increment/branch

    # -- epochs / runtime ----------------------------------------------------------
    barrier_base: int = 80
    barrier_per_log_pe: int = 25
    epoch_start: int = 40
    dynamic_chunk: int = 4
    dynamic_sched_overhead: int = 140  #: remote fetch&inc per chunk

    # -- CRAFT (BASE-version) software shared-memory overheads ----------------------
    craft_shared_ref_overhead: int = 3  #: per-access global address translation
    craft_epoch_overhead: int = 1200     #: doshared setup/teardown per epoch

    # -- hardware coherence baselines (mesi / dir versions) -------------------------
    bus_cycle: float = 2.0        #: snooping-bus address phase / beat time
    dir_msg_base: float = 18.0    #: directory message, 0-hop component
    dir_proc: int = 4             #: home-controller occupancy per request
    dir_ptr_limit: int = 4        #: dir-lp pointers before broadcast

    torus_dims: Optional[Tuple[int, int, int]] = None

    # -- derived quantities ------------------------------------------------------
    def __post_init__(self) -> None:
        if self.n_pes < 1:
            raise ValueError("n_pes must be >= 1")
        if self.line_bytes % WORD_BYTES != 0:
            raise ValueError("line size must be a whole number of words")
        if self.cache_bytes % self.line_bytes != 0:
            raise ValueError("cache size must be a whole number of lines")

    @property
    def line_words(self) -> int:
        return self.line_bytes // WORD_BYTES

    @property
    def n_lines(self) -> int:
        return self.cache_bytes // self.line_bytes

    @property
    def cache_words(self) -> int:
        return self.cache_bytes // WORD_BYTES

    def line_elems(self, elem_bytes: int) -> int:
        """Elements of the given size per cache line (at least 1)."""
        return max(1, self.line_bytes // elem_bytes)

    def log2_pes(self) -> int:
        return max(1, math.ceil(math.log2(max(2, self.n_pes))))

    def barrier_cost(self) -> int:
        if self.n_pes == 1:
            return 0
        return self.barrier_base + self.barrier_per_log_pe * self.log2_pes()

    def with_(self, **overrides) -> "MachineParams":
        """A copy with selected fields replaced (ablation studies)."""
        return replace(self, **overrides)


def t3d(n_pes: int = 8, **overrides) -> MachineParams:
    """The default Cray T3D-like configuration at a given PE count."""
    return MachineParams(n_pes=n_pes).with_(**overrides) if overrides else MachineParams(n_pes=n_pes)


def sequential_params(base: MachineParams) -> MachineParams:
    """Single-PE configuration used for the sequential baseline."""
    return base.with_(n_pes=1)


__all__ = ["MachineParams", "t3d", "sequential_params"]

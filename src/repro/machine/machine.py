"""The multiprocessor facade: memory + caches + prefetch hardware +
timing, with an exact coherence checker.

Every operation is charged to one PE's clock.  The machine is
deliberately policy-free: whether shared data is cached (CCDP) or not
(BASE), and whether CRAFT translation overheads apply, are per-call
flags decided by the runtime's execution configuration.

Coherence semantics: caches are non-coherent and write-through.  A read
that hits a cached line returns the cached value *even if memory has
moved on* — the checker records a stale-read event (and can be armed to
raise).  A correct CCDP transformation produces zero stale reads; a
naively-cached run produces both events and numerically wrong results.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..faults.state import make_state
from ..ir.arrays import ArrayDecl
from .addressing import AddressMap
from .memory import Memory
from .oracle import CoherenceOracle
from .params import MachineParams
from .pe import PE
from .prefetchq import PrefetchEntry, VectorTransfer
from .protocols import make_protocol
from .stats import MachineStats
from .topology import torus_for


class StaleReadError(RuntimeError):
    """Raised in strict mode when a PE consumes a stale cached value."""


class Machine:
    """A simulated T3D-class multiprocessor."""

    def __init__(self, arrays: Iterable[ArrayDecl], params: MachineParams,
                 on_stale: str = "record", trace: bool = False,
                 fault_plan=None, oracle: bool = False,
                 tracer=None, protocol: Optional[str] = None) -> None:
        if on_stale not in ("record", "raise"):
            raise ValueError("on_stale must be 'record' or 'raise'")
        if tracer is not None and not callable(getattr(tracer, "emit", None)):
            raise TypeError("tracer must expose an emit(event) method")
        decls = list(arrays)
        self.params = params
        self.addr_map = AddressMap(decls, params)
        self.memory = Memory(decls, params)
        self.torus = torus_for(params.n_pes)
        #: (pe, kind, extra) -> per-home cost vector (batchops.latency_table)
        self.latency_tables: dict = {}
        self.pes: List[PE] = [PE(i, params) for i in range(params.n_pes)]
        self.stats = MachineStats(per_pe=[pe.stats for pe in self.pes])
        self.on_stale = on_stale
        self._lw = params.line_words
        # Fault injection: realise the (immutable) plan into per-run state
        # with one RNG stream per (model, PE), then hand hooks to the
        # components that need them.  None when no plan is active — the
        # hot paths below guard on that and stay fault-free-identical.
        # Machine-event tracer (repro.obs.Tracer or None).  Every hot-path
        # emission below is guarded by a plain None check; with no tracer
        # attached the instrumentation is a single attribute test.
        self.tracer = tracer
        self.faults = make_state(fault_plan, params.n_pes)
        self.memory.faults = self.faults
        if self.faults is not None:
            self.faults.tracer = tracer
        if self.faults is not None:
            for pe in self.pes:
                pe.queue.squeeze = (
                    lambda cap, _pe=pe.pe_id:
                    self.faults.squeeze_capacity(_pe, cap))
        # Hardware coherence protocol (mesi/dir versions): a nominal
        # line-state machine layered over the write-through value plane.
        # It replaces the plain miss/write latencies and physically
        # invalidates remote copies on writes — see machine.protocols.
        self.protocol = make_protocol(protocol, self) if protocol else None
        # Shadow coherence oracle: replays every committed shared read
        # against a sequentially consistent shadow memory.
        self.oracle: Optional[CoherenceOracle] = (
            CoherenceOracle(self.memory) if oracle else None)
        self.memory.oracle = self.oracle
        # Optional per-PE access trace: lists of global word addresses of
        # cacheable reads (``ccdp profile`` classifies them in bulk with
        # repro.machine.batchops.classify_events).
        self.trace_enabled = trace
        self.read_trace: List[List[int]] = [[] for _ in self.pes] if trace else []
        # Optional intra-epoch race detection: per-word last writer within
        # the current epoch (cleared at barriers).  The epoch model forbids
        # cross-task dependences inside one parallel epoch; this checks it
        # dynamically, complementing the static GCD test in
        # repro.analysis.parcheck.
        self.race_check = False
        self._epoch_writers: dict = {}
        self.races: int = 0
        self.race_examples: List[str] = []

    # ------------------------------------------------------------------
    # latency helpers
    # ------------------------------------------------------------------
    def read_latency(self, pe_id: int, owner: int) -> float:
        if owner == pe_id:
            return self.params.local_mem
        return self.params.remote_base + self.params.remote_per_hop * self.torus.hops(pe_id, owner)

    def write_latency(self, pe_id: int, owner: int) -> float:
        if owner == pe_id:
            return self.params.write_local
        return (self.params.write_remote_base
                + self.params.write_remote_per_hop * self.torus.hops(pe_id, owner))

    def _owner(self, name: str, flat: int, pe_id: int) -> int:
        decl = self.memory.decls[name]
        if not decl.is_shared:
            return pe_id
        return self.addr_map.owner(name, flat)

    # ------------------------------------------------------------------
    # line fill
    # ------------------------------------------------------------------
    def _line_contents(self, name: str, line_addr: int, pe_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """(values, versions) of one line; words outside the array are 0."""
        base = self.addr_map.base(name)
        decl = self.memory.decls[name]
        lw = self._lw
        start = line_addr * lw - base
        words = np.zeros(lw, dtype=np.float64)
        versions = np.zeros(lw, dtype=np.int64)
        lo = max(start, 0)
        hi = min(start + lw, decl.size)
        if lo < hi:
            off = lo - start
            if decl.is_shared:
                words[off:off + hi - lo] = self.memory.values[name][lo:hi]
                versions[off:off + hi - lo] = self.memory.versions[name][lo:hi]
            else:
                words[off:off + hi - lo] = self.memory.private_values[name][pe_id, lo:hi]
        return words, versions

    def _install_line(self, pe: PE, name: str, line_addr: int) -> None:
        words, versions = self._line_contents(name, line_addr, pe.pe_id)
        pe.cache.install(line_addr, words, versions)

    def _install_lines_bulk(self, pe: PE, name: str, lines: list) -> None:
        """Install many lines of one array at once.

        Shared arrays are line-aligned views into the flat memory backing
        (padding words between arrays stay zero), so a line's contents are
        exactly ``values_flat[line*lw : (line+1)*lw]`` — one gather/scatter
        replaces the per-line install loop when the target sets are distinct
        (always true for a contiguous run shorter than the cache)."""
        decl = self.memory.decls[name]
        n = len(lines)
        if decl.is_shared and n <= 4:
            # A few lines: per-line slices (~2 us a line) cost less than
            # the bulk path's NumPy set-up (6-15 us).  In order, so a
            # later line wins a shared set.
            cache = pe.cache
            lw = self._lw
            for line in lines:
                ix = line % cache.n_lines
                w = line * lw
                cache.tags[ix] = line
                cache.data[ix] = self.memory.values_flat[w:w + lw]
                cache.vers[ix] = self.memory.versions_flat[w:w + lw]
            return
        if decl.is_shared:
            cache = pe.cache
            lw = self._lw
            ln = np.arange(lines.start, lines.stop, dtype=np.int64) \
                if isinstance(lines, range) else np.asarray(lines,
                                                            dtype=np.int64)
            contiguous = n == int(ln[-1] - ln[0] + 1)
            i0 = int(ln[0]) % cache.n_lines
            if contiguous and i0 + n <= cache.n_lines:
                # Contiguous run with no set wraparound: both sides are
                # plain slices of the line-aligned flat backing.
                w0 = int(ln[0]) * lw
                cache.tags[i0:i0 + n] = ln
                cache.data[i0:i0 + n] = \
                    self.memory.values_flat[w0:w0 + n * lw].reshape(n, lw)
                cache.vers[i0:i0 + n] = \
                    self.memory.versions_flat[w0:w0 + n * lw].reshape(n, lw)
                return
            ix = ln % cache.n_lines
            if contiguous or np.unique(ix).size == ix.size:
                word_ix = ln[:, None] * lw + np.arange(lw, dtype=np.int64)
                cache.tags[ix] = ln
                cache.data[ix] = self.memory.values_flat[word_ix]
                cache.vers[ix] = self.memory.versions_flat[word_ix]
                return
        for line_addr in lines:
            self._install_line(pe, name, line_addr)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read(self, pe_id: int, name: str, flat: int, *, cacheable: bool = True,
             bypass: bool = False, craft: bool = False) -> float:
        """Service one load; advances the PE clock and returns the value
        the processor observes (stale cached data included)."""
        pe = self.pes[pe_id]
        pe.stats.reads += 1
        tr = self.tracer
        decl = self.memory.decls[name]
        shared = decl.is_shared
        if self.faults is not None:
            self.faults.maybe_evict(pe_id, pe.cache)
        if self.race_check and shared:
            writer = self._epoch_writers.get((name, flat))
            if writer is not None and writer != pe_id:
                self._race_event(pe_id, writer, name, flat, "read-after-write")

        direct = bypass or not cacheable
        drop = False
        if not direct:
            addr = self.addr_map.addr(name, flat)
            line_addr = addr // self._lw
            if shared and pe.dropped_lines and line_addr in pe.dropped_lines:
                direct = drop = True
        if direct:
            # Direct memory access: BASE-mode shared refs, CCDP
            # bypass-cache fetches, and (paper rule 2) the use of a line
            # whose prefetch was dropped, which stays invalid from the
            # pre-issue invalidation and is never installed.  Always
            # fresh.  Uncached *local* word reads stream from DRAM page
            # mode, cheaper than a line fill.
            owner = self._owner(name, flat, pe_id)
            if owner == pe_id:
                latency: float = self.params.uncached_local_read
            else:
                latency = self.memory.remote_latency(
                    pe_id, self.read_latency(pe_id, owner))
            if craft:
                latency += self.params.craft_shared_ref_overhead
            pe.advance(latency)
            if drop:
                pe.dropped_lines.discard(line_addr)
                pe.stats.bypass_reads += 1
                pe.stats.pf_drop_bypass += 1
                kind = "pf_drop"
            elif bypass:
                pe.stats.bypass_reads += 1
                kind = "bypass"
            elif owner == pe_id:
                pe.stats.uncached_local_reads += 1
                kind = "uncached_local"
            else:
                pe.stats.uncached_remote_reads += 1
                kind = "uncached_remote"
            if tr is not None:
                tr.emit(("bypass_fetch", pe_id, name, flat, kind))
            if shared:
                value = self.memory.read(name, flat)
                if self.oracle is not None:
                    self.oracle.observe_read(pe_id, name, flat, value, False)
                return value
            return self.memory.read_private(name, pe_id, flat)

        if self.trace_enabled:
            self.read_trace[pe_id].append(addr)
        cached = pe.cache.read(addr)
        if cached is not None:
            value, version = cached
            transfer = pe.vectors.match(line_addr)
            if transfer is not None and transfer.completion > pe.clock:
                stall = pe.wait_until(transfer.completion)
                pe.stats.vector_stall_cycles += stall
                # the transfer delivered fresh data; re-read the line
                value, version = pe.cache.read(addr)  # type: ignore[misc]
            pe.advance(self.params.cache_hit)
            pe.stats.cache_hits += 1
            stale = shared and version < self.memory.version(name, flat)
            if tr is not None:
                tr.emit(("read_hit", pe_id, name, flat, int(stale)))
            if stale:
                self._stale_event(pe_id, name, flat, version)
            if shared and self.oracle is not None:
                self.oracle.observe_read(pe_id, name, flat, value, stale)
            return value

        # Miss: does an outstanding prefetch cover this line?
        entry = pe.queue.match(line_addr)
        if entry is not None:
            late = pe.wait_until(entry.arrival)
            pe.stats.prefetch_late_cycles += late
            pe.advance(self.params.prefetch_extract)
            pe.queue.extract(entry)
            pe.stats.prefetch_extracted += 1
            if tr is not None:
                tr.emit(("pf_complete", pe_id, name, flat))
            self._install_line(pe, name, line_addr)
            fresh = pe.cache.read(addr)
            assert fresh is not None
            if shared and self.oracle is not None:
                self.oracle.observe_read(pe_id, name, flat, fresh[0], False)
            return fresh[0]

        # Plain miss: fetch the line from its home memory (or, under a
        # hardware protocol, via the protocol's transaction model —
        # possibly cache-to-cache from a modified remote copy).
        owner = self._owner(name, flat, pe_id)
        if self.protocol is not None and shared:
            latency = self.protocol.read_miss(pe_id, line_addr, owner,
                                              pe.clock)
        else:
            latency = self.read_latency(pe_id, owner)
            if owner != pe_id:
                latency = self.memory.remote_latency(pe_id, latency)
        if craft:
            latency += self.params.craft_shared_ref_overhead
        pe.advance(latency)
        pe.stats.cache_misses += 1
        if owner == pe_id:
            pe.stats.local_fills += 1
        else:
            pe.stats.remote_fills += 1
        if tr is not None:
            tr.emit(("read_miss", pe_id, name, flat, int(owner == pe_id)))
        self._install_line(pe, name, line_addr)
        fresh = pe.cache.read(addr)
        assert fresh is not None
        if shared and self.oracle is not None:
            self.oracle.observe_read(pe_id, name, flat, fresh[0], False)
        return fresh[0]

    def _stale_event(self, pe_id: int, name: str, flat: int, version: int) -> None:
        self.stats.stale_reads += 1
        self.pes[pe_id].stats.stale_hits += 1
        if len(self.stats.stale_examples) < 16:
            self.stats.stale_examples.append(
                f"PE{pe_id} read stale {name}[flat={flat}] "
                f"(cached v{version} < memory v{self.memory.version(name, flat)})")
        if self.on_stale == "raise":
            raise StaleReadError(self.stats.stale_examples[-1])

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def write(self, pe_id: int, name: str, flat: int, value: float, *,
              cacheable: bool = True, craft: bool = False) -> None:
        pe = self.pes[pe_id]
        pe.stats.writes += 1
        decl = self.memory.decls[name]
        if self.faults is not None:
            self.faults.maybe_evict(pe_id, pe.cache)
        if not decl.is_shared:
            self.memory.write_private(name, pe_id, flat, value)
            pe.advance(self.params.write_local)
            if self.tracer is not None:
                self.tracer.emit(("write", pe_id, name, flat, 0, 0))
            if cacheable:
                addr = self.addr_map.addr(name, flat)
                pe.cache.write_through_update(addr, value, 0)
            return
        if self.race_check:
            previous = self._epoch_writers.get((name, flat))
            if previous is not None and previous != pe_id:
                self._race_event(pe_id, previous, name, flat, "write-after-write")
            self._epoch_writers[(name, flat)] = pe_id
        owner = self.addr_map.owner(name, flat)
        version = self.memory.write(name, flat, value)
        if self.oracle is not None:
            self.oracle.observe_write(name, flat, value)
        if self.protocol is not None:
            # Protocol write: memory already holds the value (the value
            # plane stays write-through exact), so the protocol only
            # prices the transaction and kills remote copies.  Ownership
            # makes the store local — remote_writes stays 0, and the
            # write event says so, keeping trace folds exact.  A write
            # that missed allocates: the line comes in from memory, new
            # value included (the one write-allocate path).
            addr = self.addr_map.addr(name, flat)
            line_addr = addr // self._lw
            latency = self.protocol.write(pe_id, line_addr, owner, pe.clock)
            pe.advance(latency)
            if self.tracer is not None:
                self.tracer.emit(("write", pe_id, name, flat, 1, 0))
            if cacheable and not pe.cache.write_through_update(
                    addr, value, version):
                self._install_line(pe, name, line_addr)
            return
        latency = self.write_latency(pe_id, owner)
        if owner != pe_id:
            latency = self.memory.remote_latency(pe_id, latency)
        if craft:
            latency += self.params.craft_shared_ref_overhead
        pe.advance(latency)
        if owner != pe_id:
            pe.stats.remote_writes += 1
        if self.tracer is not None:
            self.tracer.emit(("write", pe_id, name, flat, 1,
                              int(owner != pe_id)))
        if cacheable:
            # Write-through, no allocate: update this PE's copy if present.
            addr = self.addr_map.addr(name, flat)
            pe.cache.write_through_update(addr, value, version)

    # ------------------------------------------------------------------
    # prefetch operations
    # ------------------------------------------------------------------
    def prefetch_line(self, pe_id: int, name: str, flat: int,
                      invalidate: bool = True) -> bool:
        """Issue a line prefetch; returns False when dropped (queue full).
        The target line is invalidated first, so even a dropped prefetch
        leaves the program coherent (the use will miss to fresh memory)."""
        pe = self.pes[pe_id]
        tr = self.tracer
        addr = self.addr_map.addr(name, flat)
        line_addr = addr // self._lw
        if invalidate:
            if pe.cache.invalidate_line(line_addr):
                pe.stats.invalidations += 1
                if tr is not None:
                    tr.emit(("invalidate", pe_id, name, 1, "prefetch",
                             -1, -1))
        owner = self._owner(name, flat, pe_id)
        cost = self.params.prefetch_issue
        dtb = 0
        if pe.last_prefetch_pe != owner:
            cost += self.params.dtb_setup
            pe.stats.dtb_setups += 1
            pe.last_prefetch_pe = owner
            dtb = 1
        pe.advance(cost)
        pe.queue.reclaim_arrived(pe.clock - 4 * self.params.remote_base)
        # Coalesce probe (trace only): issue() folds both outcomes into
        # True, so peek at the queue before issuing to tell them apart.
        coalesced = tr is not None and pe.queue.match(line_addr) is not None
        if self.faults is not None and self.faults.force_drop(pe_id):
            # Injected drop: the issue is lost before it reaches the queue.
            accepted = False
        else:
            fill = self.read_latency(pe_id, owner)
            if owner != pe_id:
                fill = self.memory.remote_latency(pe_id, fill)
            accepted = pe.queue.issue(PrefetchEntry(
                line_addr=line_addr, array=name, arrival=pe.clock + fill,
                issued_at=pe.clock, home_pe=owner))
        if accepted:
            pe.stats.prefetch_issued += 1
            pe.dropped_lines.discard(line_addr)
            if tr is not None:
                tr.emit(("pf_coalesce" if coalesced else "pf_issue",
                         pe_id, name, line_addr, dtb))
        else:
            pe.stats.pf_dropped += 1
            # Paper rule 2: mark the line so its use point degrades to a
            # bypass-cache fetch (the line itself is already invalid).
            pe.dropped_lines.add(line_addr)
            if tr is not None:
                tr.emit(("pf_drop", pe_id, name, line_addr, dtb))
        return accepted

    def prefetch_vector(self, pe_id: int, name: str, flat_start: int,
                        length: int, stride: int = 1,
                        invalidate: bool = True) -> None:
        """SHMEM-style block prefetch of ``length`` elements with a fixed
        element ``stride``.  Covered lines are installed (usable after the
        transfer completes); reads that race the transfer stall."""
        if length <= 0:
            return
        pe = self.pes[pe_id]
        decl = self.memory.decls[name]
        flat_last = flat_start + (length - 1) * stride
        if not (0 <= flat_start < decl.size and 0 <= flat_last < decl.size):
            raise IndexError(
                f"vector prefetch of {name} out of bounds: "
                f"[{flat_start}, {flat_last}] vs size {decl.size}")
        addr_lo = self.addr_map.addr(name, min(flat_start, flat_last))
        addr_hi = self.addr_map.addr(name, max(flat_start, flat_last))
        line_lo = addr_lo // self._lw
        line_hi = addr_hi // self._lw
        if stride == 1:
            install_lines = range(line_lo, line_hi + 1)
        else:
            install_lines = sorted({
                self.addr_map.addr(name, flat_start + k * stride) // self._lw
                for k in range(length)})
        if len(install_lines) > pe.cache.n_lines:
            raise ValueError(
                f"vector prefetch touching {len(install_lines)} lines exceeds "
                f"the cache ({pe.cache.n_lines} lines); the compiler must bound it")
        tr = self.tracer
        if invalidate:
            if stride == 1:
                killed = pe.cache.invalidate_range(addr_lo, addr_hi)
            else:
                killed = 0
                for line_addr in install_lines:
                    if pe.cache.invalidate_line(line_addr):
                        killed += 1
            pe.stats.invalidations += killed
            if tr is not None and killed:
                tr.emit(("invalidate", pe_id, name, killed, "vector",
                         -1, -1))
        stall_at = pe.vectors.stall_until_slot(pe.clock)
        stall = pe.wait_until(stall_at)
        pe.stats.vector_stall_cycles += stall
        pe.vectors.reap(pe.clock)
        owner = self._owner(name, flat_start, pe_id)
        hops = self.torus.hops(pe_id, owner) if owner != pe_id else 0
        pe.advance(self.params.vector_startup)
        words = length  # one word per element
        network = self.params.remote_per_hop * hops
        if owner != pe_id:
            network = self.memory.remote_latency(pe_id, network)
        completion = pe.clock + self.params.vector_per_word * words + network
        self._install_lines_bulk(pe, name, install_lines)
        pe.vectors.issue(VectorTransfer(array=name, line_lo=line_lo,
                                        line_hi=line_hi, completion=completion))
        pe.stats.vector_prefetches += 1
        pe.stats.vector_words += words
        if tr is not None:
            tr.emit(("vector_transfer", pe_id, name, line_lo, line_hi, words,
                     flat_start, stride))

    # ------------------------------------------------------------------
    # trace replay support (repro.trace)
    # ------------------------------------------------------------------
    def replay_read(self, pe_id: int, name: str, flat: int,
                    hint: Optional[str] = None, *, cacheable: bool = True,
                    bypass: bool = False, craft: bool = False) -> float:
        """:meth:`read`, steered by a recorded outcome.

        The trace frontend replays reads through the ordinary read path —
        latency, installs, events and the oracle all behave naturally —
        but prefetch-queue *timing* cannot be reconstructed from a trace
        (replayed clocks exclude compute), so the recorded outcome
        ``hint`` pre-adjusts queue state instead:

        * ``"miss"`` — the source run had no covering entry at this
          point: retire any lingering replay entry so the read misses to
          memory.
        * ``"extract"`` — the source run extracted a covering prefetch:
          inject an already-arrived entry if the replay queue lost it.
        * ``"drop"`` — the line's prefetch was dropped (paper rule 2):
          mark it so the read degrades to a bypass fetch.
        * ``"hit"`` / ``None`` — no queue adjustment; the cache decides.

        Cache *contents* are queue-timing independent (a miss and an
        extract install identical line data), so hints only repair
        timing divergence, never values.
        """
        pe = self.pes[pe_id]
        if (hint is not None and cacheable and not bypass
                and self.memory.decls[name].is_shared):
            line_addr = self.addr_map.addr(name, flat) // self._lw
            if hint in ("hit", "miss", "extract"):
                pe.dropped_lines.discard(line_addr)
            if hint == "miss":
                entry = pe.queue.match(line_addr)
                while entry is not None:
                    pe.queue.entries.remove(entry)
                    entry = pe.queue.match(line_addr)
            elif hint == "extract":
                if pe.queue.match(line_addr) is None:
                    owner = self._owner(name, flat, pe_id)
                    pe.queue.entries.append(PrefetchEntry(
                        line_addr=line_addr, array=name, arrival=pe.clock,
                        issued_at=pe.clock, home_pe=owner))
            elif hint == "drop":
                pe.dropped_lines.add(line_addr)
        return self.read(pe_id, name, flat, cacheable=cacheable,
                         bypass=bypass, craft=craft)

    def replay_prefetch_line(self, pe_id: int, name: str, line_addr: int,
                             outcome: str, dtb: int,
                             invalidate: bool = True) -> None:
        """:meth:`prefetch_line`, steered by a recorded outcome.

        ``outcome`` is the source run's queue disposition (``issue`` /
        ``coalesce`` / ``drop``) and ``dtb`` its recorded DTB-setup
        flag; both depend on source queue occupancy and clock values the
        replay cannot reproduce, so they are forced rather than
        recomputed.  The queue itself is kept plausible — issued entries
        are appended (capacity was already arbitrated by the source
        run), and a forced issue retires any lingering replay entry for
        the same line first.  Entries are never reclaimed on a timer;
        :meth:`replay_read` hints retire them at their use points.
        """
        if outcome not in ("issue", "coalesce", "drop"):
            raise ValueError(f"unknown prefetch outcome {outcome!r}")
        pe = self.pes[pe_id]
        tr = self.tracer
        if invalidate and pe.cache.invalidate_line(line_addr):
            pe.stats.invalidations += 1
            if tr is not None:
                tr.emit(("invalidate", pe_id, name, 1, "prefetch", -1, -1))
        # The recorded event carries the line, not the accessed element;
        # any in-line element gives the same owner *for the latency*
        # only when ownership doesn't split the line, so clamp to the
        # line's first in-array word (the dtb decision — the part that
        # is owner-boundary sensitive — comes from the trace, not from
        # this owner).
        decl = self.memory.decls[name]
        flat0 = min(max(line_addr * self._lw - self.addr_map.base(name), 0),
                    decl.size - 1)
        owner = self._owner(name, flat0, pe_id)
        cost = self.params.prefetch_issue
        if dtb:
            cost += self.params.dtb_setup
            pe.stats.dtb_setups += 1
        pe.last_prefetch_pe = owner
        pe.advance(cost)
        if outcome == "drop":
            pe.queue.dropped += 1
            pe.stats.pf_dropped += 1
            pe.dropped_lines.add(line_addr)
            if tr is not None:
                tr.emit(("pf_drop", pe_id, name, line_addr, dtb))
            return
        pe.stats.prefetch_issued += 1
        pe.dropped_lines.discard(line_addr)
        if outcome == "coalesce":
            if tr is not None:
                tr.emit(("pf_coalesce", pe_id, name, line_addr, dtb))
            return
        entry = pe.queue.match(line_addr)
        while entry is not None:
            pe.queue.entries.remove(entry)
            entry = pe.queue.match(line_addr)
        fill = self.read_latency(pe_id, owner)
        if owner != pe_id:
            fill = self.memory.remote_latency(pe_id, fill)
        queue = pe.queue
        queue.entries.append(PrefetchEntry(
            line_addr=line_addr, array=name, arrival=pe.clock + fill,
            issued_at=pe.clock, home_pe=owner))
        queue.issued += 1
        if len(queue.entries) > queue.high_water:
            queue.high_water = len(queue.entries)
        if tr is not None:
            tr.emit(("pf_issue", pe_id, name, line_addr, dtb))

    def invalidate(self, pe_id: int, name: str, flat_lo: int, flat_hi: int) -> int:
        """Explicit invalidation of the lines covering an element range."""
        pe = self.pes[pe_id]
        addr_lo = self.addr_map.addr(name, flat_lo)
        addr_hi = self.addr_map.addr(name, flat_hi)
        count = pe.cache.invalidate_range(addr_lo, addr_hi)
        pe.stats.invalidations += count
        pe.advance(max(1, count) * self.params.int_op)
        if self.tracer is not None:
            self.tracer.emit(("invalidate", pe_id, name, count, "explicit",
                              flat_lo, flat_hi))
        return count

    # ------------------------------------------------------------------
    # synchronisation
    # ------------------------------------------------------------------
    def _race_event(self, reader_pe: int, writer_pe: int, name: str,
                    flat: int, kind: str) -> None:
        self.races += 1
        if len(self.race_examples) < 16:
            self.race_examples.append(
                f"{kind}: PE{reader_pe} touched {name}[flat={flat}] "
                f"written by PE{writer_pe} in the same epoch")

    def barrier(self) -> float:
        """All PEs synchronise; returns the post-barrier common time."""
        self.stats.barriers += 1
        if self.protocol is not None:
            self.protocol.on_barrier()
        if self.race_check:
            self._epoch_writers.clear()
        pes = self.pes
        latest = max(pe.clock for pe in pes)
        time = latest + self.params.barrier_cost()
        # Only PEs strictly behind the latest clock accrue idle time.
        # ``latest + cost`` is the same float every PE's ``clock = latest;
        # clock += cost`` would produce.
        for pe in pes:
            if pe.clock < latest:
                pe.stats.idle_cycles += latest - pe.clock
            pe.clock = time
        if self.tracer is not None:
            self.tracer.emit(("barrier", time))
        return time

    def elapsed(self) -> float:
        return max(pe.clock for pe in self.pes)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def coherent(self) -> bool:
        return self.stats.stale_reads == 0


__all__ = ["Machine", "StaleReadError"]

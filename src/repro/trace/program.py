"""TraceProgram: a recorded access stream bound to array declarations,
replayable through :class:`~repro.machine.machine.Machine` under any
scheme in the :data:`~repro.runtime.exec_config.SCHEMES` registry.

The driver applies the reference interpreter's per-access policy
exactly — cacheability, CRAFT overheads and prefetch liveness come from
the target scheme's :meth:`SchemeSpec.policy`, so a CCDP trace
replayed under ``mesi`` turns its prefetches into the same timing noops
the interpreter would have compiled, and a BASE trace replayed under
``ccdp`` caches the reads the source ran uncached.  Replaying a trace
under the scheme that recorded it reproduces the source run's
:class:`PEStats` / interconnect counters exactly (the conformance
contract: ``repro.obs.fold.reconcile`` of source events against the
replayed machine is empty) — on both the reference per-access path and
the batched path.

The batched path (:class:`_BulkReplay`) runs the scans the batched
execution backend already trusts.  Each ops chunk splits into maximal
*segments* of ops those scans model: shared reads (hint ``hit``,
``miss`` or none, bypass and uncached reads), shared writes, and the
timing-noop prefetches of schemes whose prefetch machinery is dead.
Without a protocol a segment lowers into
:func:`~repro.machine.batchops.replay_chunk` (hits, misses, write costs
and vector-transfer stalls against shadow state); under mesi/dir it
runs :func:`~repro.machine.batchops.protocol_scan`.  Either way the
priced segment goes live through the batched backend's own commit,
:func:`~repro.machine.batchops.commit_run`, and its costs come from the
memoised :func:`~repro.machine.batchops.latency_table`.  Any other op
ends the segment and runs through :func:`_apply_op`: live line or vector
prefetches, ``extract``/``drop`` hints, explicit invalidations,
private arrays, reads of a line that was queued or dropped when the
segment started, and reads or writes of a line that was stale when the
chunk started (:func:`~repro.machine.batchops.live_stale_lines`).  The
rest of the chunk stays in bulk.

Out of the conformance contract, by design: cycle-class numbers.
Replayed clocks carry memory-system costs only (the trace records no
compute, no ``epoch_start`` / ``loop_overhead`` charges), so elapsed
cycles are *comparable between replays*, not equal to the source run's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from ..ir.arrays import ArrayDecl
from ..machine.batchops import (INSTALL, RE_COST, RE_READ, READ, REC_HIT,
                                REC_MISS, REC_NONE, WRITE, commit_run,
                                latency_table, live_stale_lines,
                                protocol_scan, replay_chunk)
from ..machine.machine import Machine
from ..machine.params import MachineParams
from ..runtime.exec_config import Backend, SCHEMES, scheme_names
from .format import TraceError
from .reader import (DEFAULT_CHUNK_OPS, read_jsonl_records,
                     read_text_records, scan_text)


@dataclass
class ReplayCounters:
    """Bulk-path bookkeeping for one replay."""

    ops: int = 0            #: ops applied in total
    bulk_ops: int = 0       #: ops serviced by the batched bulk path
    bulk_runs: int = 0      #: bulk segments committed
    fallbacks: int = 0      #: chunks a run-wide reason sent to per-op
    #: ops sent to the reference path, per reason: ``vector``,
    #: ``prefetch``, ``queue_hint``, ``invalidate``, ``private``,
    #: ``stale``, ``bounds`` (an index or op the reference rejects), and
    #: the run-wide ``traced_protocol``
    reasons: Dict[str, int] = field(default_factory=dict)


@dataclass
class TraceReplayResult:
    """One finished replay: the machine plus per-epoch stream rows."""

    machine: Machine
    version: str
    backend: str
    epochs: List[dict] = field(default_factory=list)
    counters: ReplayCounters = field(default_factory=ReplayCounters)

    @property
    def elapsed(self) -> float:
        return self.machine.elapsed()

    def stats_dict(self) -> dict:
        return self.machine.stats.as_dict()


class TraceProgram:
    """A trace bound to declarations — the replay analogue of an IR
    program.  Construction is cheap; every :meth:`replay` call streams
    the records afresh from the factory (so multi-GB traces are never
    resident and one program can replay under many schemes)."""

    def __init__(self, records_factory: Callable[[], Iterable[tuple]],
                 decls: Iterable[ArrayDecl], n_pes: int,
                 name: str = "trace") -> None:
        self.records_factory = records_factory
        self.decls = list(decls)
        self.n_pes = int(n_pes)
        self.name = name
        names = [d.name for d in self.decls]
        if len(set(names)) != len(names):
            raise TraceError(f"{name}: duplicate array declarations")

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_text(cls, path, *, pes: Optional[int] = None,
                  chunk_ops: int = DEFAULT_CHUNK_OPS) -> "TraceProgram":
        """Bind a text trace; geometry comes from the trace itself
        (directives or the implicit counts-only scan)."""
        from .ingest import decls_from_sizes
        info = scan_text(path)
        if not info.arrays:
            raise TraceError(f"{path}: trace contains no accesses")
        n_pes = info.pes(pes)
        if info.max_pe >= n_pes:
            raise TraceError(
                f"{path}: access on PE {info.max_pe} but the replay "
                f"machine has {n_pes} PE(s); raise --pes or add '%pes'")
        return cls(lambda: read_text_records(path, chunk_ops=chunk_ops,
                                             info=info),
                   decls_from_sizes(info.arrays), n_pes, name=str(path))

    @classmethod
    def from_jsonl(cls, path, decls: Iterable[ArrayDecl], n_pes: int, *,
                   chunk_ops: int = DEFAULT_CHUNK_OPS) -> "TraceProgram":
        """Bind a normalized JSONL event trace to a workload's array
        declarations (events name arrays but not their geometry)."""
        return cls(lambda: read_jsonl_records(path, chunk_ops=chunk_ops),
                   decls, n_pes, name=str(path))

    @classmethod
    def from_events(cls, events: Iterable[tuple], decls: Iterable[ArrayDecl],
                    n_pes: int, name: str = "<events>") -> "TraceProgram":
        """Bind an in-memory event list (tests, round-trips)."""
        from .ingest import plain_events, records_from_events
        events = list(events)
        return cls(lambda: records_from_events(plain_events(events),
                                               path=name),
                   decls, n_pes, name=name)

    # -- replay ---------------------------------------------------------
    def replay(self, params: MachineParams, version: str, *,
               backend: str = Backend.REFERENCE, oracle: bool = False,
               on_stale: str = "record", tracer=None,
               epoch_cb: Optional[Callable[[dict], None]] = None
               ) -> TraceReplayResult:
        """Drive every recorded access through a fresh machine.

        ``epoch_cb`` (if given) receives one dict per closed epoch as
        the stream is consumed — counter *deltas* over the epoch plus
        the machine clock — which is what the CLI streams live.
        """
        spec = SCHEMES.get(version)
        if spec is None:
            raise TraceError(f"unknown version {version!r}; expected one "
                             f"of {scheme_names()}")
        if backend not in Backend.ALL:
            raise TraceError(f"unknown backend {backend!r}; expected one "
                             f"of {', '.join(Backend.ALL)}")
        if params.n_pes < self.n_pes:
            raise TraceError(
                f"{self.name}: trace needs {self.n_pes} PE(s) but the "
                f"machine has {params.n_pes}")
        machine = Machine(self.decls, params, on_stale=on_stale,
                          oracle=oracle, tracer=tracer,
                          protocol=spec.protocol)
        counters = ReplayCounters()
        epochs: List[dict] = []
        # Per array: (shared, cacheable, craft, prefetch_live, size, base).
        flags = {decl.name: (decl.is_shared, *spec.policy(decl), decl.size,
                             machine.addr_map.base(decl.name))
                 for decl in self.decls}
        bulk = _BulkReplay(machine, spec, flags) \
            if backend == Backend.BATCHED else None
        # Written values are ``float(n)`` for the n-th write in stream
        # order: trace events carry no data values, and any deterministic
        # sequence reproduces the machine's coherence behaviour exactly
        # (versions, not values, drive staleness).  Both replay paths
        # draw from this one counter, which keeps them bit-identical.
        state = itertools.count(1)
        snap = _totals(machine)
        open_epoch: Optional[tuple] = None
        for record in self.records_factory():
            kind = record[0]
            if kind == "ops":
                _, pe, ops = record
                if pe >= params.n_pes:
                    raise TraceError(
                        f"{self.name}: access on PE {pe} but the replay "
                        f"machine has {params.n_pes} PE(s); raise --pes")
                counters.ops += len(ops)
                if bulk is not None:
                    bulk.chunk(pe, ops, state, counters)
                else:
                    for op in ops:
                        _apply_op(machine, flags, pe, op, state)
            elif kind == "barrier":
                machine.barrier()
            elif kind == "epoch":
                open_epoch = (record[1], record[2])
                if tracer is not None:
                    tracer.epoch_begin(record[2], machine)
            elif kind == "end_epoch":
                machine.stats.epochs += 1
                if tracer is not None:
                    tracer.epoch_end(record[2], machine)
                now = _totals(machine)
                row = {"index": record[1], "label": record[2],
                       "reads": now[0] - snap[0],
                       "writes": now[1] - snap[1],
                       "hits": now[2] - snap[2],
                       "misses": now[3] - snap[3],
                       "stale": now[4] - snap[4],
                       "clock": machine.elapsed()}
                snap = now
                epochs.append(row)
                open_epoch = None
                if epoch_cb is not None:
                    epoch_cb(row)
            else:
                raise TraceError(f"{self.name}: unknown trace record "
                                 f"{kind!r}")
        if open_epoch is not None:
            raise TraceError(
                f"{self.name}: epoch {open_epoch[0]} ({open_epoch[1]!r}) "
                f"never closed — the trace ends inside it")
        if oracle and machine.oracle is not None:
            machine.oracle.verify_final(machine.memory)
        return TraceReplayResult(machine=machine, version=version,
                                 backend=backend, epochs=epochs,
                                 counters=counters)


def _totals(machine: Machine) -> tuple:
    total = machine.stats.total()
    return (total.reads, total.writes, total.cache_hits,
            total.cache_misses, machine.stats.stale_reads)


def _apply_op(machine: Machine, flags: Dict[str, tuple], pe: int,
              op: tuple, state: Iterator[int]) -> None:
    """Apply one replay op through the reference per-access path."""
    kind = op[0]
    try:
        info = flags[op[1]]
    except KeyError:
        raise TraceError(
            f"trace references array {op[1]!r} absent from the replay "
            f"declarations ({', '.join(sorted(flags)) or 'none'}); pass "
            f"the workload the trace was recorded from") from None
    shared, cacheable, craft, pf_live, size, _ = info
    if (kind == "r" or kind == "w") and not 0 <= op[2] < size:
        raise TraceError(
            f"trace accesses {op[1]}[{op[2]}] but {op[1]} is declared "
            f"with {size} element(s); pass the workload size the trace "
            f"was recorded from")
    if kind == "r":
        hint = op[3]
        if hint == "bypass" and shared:
            machine.replay_read(pe, op[1], op[2], cacheable=cacheable,
                                bypass=True, craft=craft)
        else:
            # "uncached" describes the *source* scheme's policy; here
            # cacheability is this scheme's call.  Queue hints only mean
            # anything while the prefetch machinery is live.
            use = hint if (pf_live and shared
                           and hint in ("hit", "miss", "extract", "drop")) \
                else None
            machine.replay_read(pe, op[1], op[2], use, cacheable=cacheable,
                                craft=craft)
    elif kind == "w":
        machine.write(pe, op[1], op[2], float(next(state)),
                      cacheable=cacheable, craft=craft)
    elif kind == "p":
        if pf_live:
            machine.replay_prefetch_line(pe, op[1], op[2], op[3], op[4],
                                         invalidate=op[5])
        else:
            machine.pes[pe].advance(machine.params.prefetch_issue)
    elif kind == "v":
        if pf_live:
            machine.prefetch_vector(pe, op[1], op[2], op[3], op[4],
                                    invalidate=op[5])
        else:
            machine.pes[pe].advance(machine.params.vector_startup)
    elif kind == "i":
        machine.invalidate(pe, op[1], op[2], op[3])
    else:
        raise TraceError(f"unknown replay op {kind!r}")


# Stat codes of lowered ops (one per op in a segment).
_S_READ, _S_BYPASS, _S_ULOCAL, _S_UREMOTE, _S_WLOCAL, _S_WREMOTE, \
    _S_NOOP = range(7)


class _BulkReplay:
    """Batched replay bound to one machine and scheme (see the module
    docstring).  Segments commit exactly: only this PE acts while a
    chunk replays, no segment read touches a line the scans cannot
    price, and every touched line still resident at the end holds final
    memory, so the commit scatters the writes and refills those lines."""

    def __init__(self, machine: Machine, spec, flags: Dict[str, tuple]
                 ) -> None:
        self.machine = machine
        self.flags = flags
        self.proto = machine.protocol
        # A protocol emits its own events mid-transaction, which a
        # post-scan emission cannot interleave.
        self.forced = "traced_protocol" if (
            self.proto is not None and machine.tracer is not None) else None
        params = machine.params
        self.lw = params.line_words
        self.own = machine.addr_map.owner_plane().tolist()
        self.extra = float(params.craft_shared_ref_overhead) \
            if spec.craft_overheads else 0.0

    def _hazards(self, pe_obj, stale: Dict[int, str]) -> Dict[int, str]:
        """Line -> reason for every line a segment read must not touch:
        stale, queued or dropped."""
        queue = pe_obj.queue.entries
        if not (queue or pe_obj.dropped_lines):
            return stale
        out = dict.fromkeys(pe_obj.dropped_lines, "queue_hint")
        out.update((e.line_addr, "queue_hint") for e in queue)
        out.update(stale)
        return out

    def chunk(self, pe: int, ops: list, state: Iterator[int],
              counters: ReplayCounters) -> None:
        """Apply one chunk of a PE's ops, segment by segment."""
        machine, flags = self.machine, self.flags
        reasons = counters.reasons
        if self.forced is not None:
            for op in ops:
                _apply_op(machine, flags, pe, op, state)
            counters.fallbacks += 1
            reasons[self.forced] = reasons.get(self.forced, 0) + len(ops)
            return
        pe_obj = machine.pes[pe]
        stale = dict.fromkeys(live_stale_lines(machine, pe).tolist(), "stale")
        hazard = self._hazards(pe_obj, stale)
        x = self.extra
        # The read column under a protocol is the CRAFT extra alone: the
        # protocol prices the miss.
        rcost = [x] * machine.params.n_pes if self.proto is not None \
            else latency_table(machine, pe, "r", x).tolist()
        wcost = latency_table(machine, pe, "w", x).tolist()
        ucost = latency_table(machine, pe, "u", x).tolist()
        own, lw = self.own, self.lw
        if self.proto is not None:
            k_read, k_write, k_cost = READ, INSTALL, WRITE
        else:
            k_read, k_write, k_cost = RE_READ, RE_COST, RE_COST
        # One replay_chunk row per kind of op: the op costs table[home].
        r_read, r_write, r_wcost, r_ucost = (
            (k, 0, t, None, False, None) for k, t in (
                (k_read, rcost), (k_write, wcost), (k_cost, wcost),
                (k_cost, ucost)))
        noop = {k: ((k_cost, 0, (c,), None, False, None), -1, -1, c, _S_NOOP)
                for k, c in (("p", float(machine.params.prefetch_issue)),
                             ("v", float(machine.params.vector_startup)))}
        # One (scan row, line or -1, home, cost, stat code) per op.
        events: list = []
        add = events.append
        writes: list = []
        i0 = 0
        for i, op in enumerate(ops):
            k = op[0]
            p = flags.get(op[1])
            reason = None
            if p is None or not p[0]:
                reason = "invalidate" if k == "i" else "private"
            elif k == "r" or k == "w":
                _, cacheable, _, pf_live, size, base = p
                flat = op[2]
                addr = base + flat
                h = own[addr] if 0 <= flat < size else None
                if h is None:
                    reason = "bounds"
                elif k == "w":
                    line = addr // lw if cacheable else -1
                    if line in stale:
                        reason = "stale"
                    else:
                        add((r_write if cacheable else r_wcost, line, h,
                             wcost[h],
                             _S_WLOCAL if h == pe else _S_WREMOTE))
                        writes.append((op[1], flat, next(state)))
                elif op[3] == "bypass":
                    add((r_ucost, -1, h, ucost[h], _S_BYPASS))
                elif not cacheable:
                    add((r_ucost, -1, h, ucost[h],
                         _S_ULOCAL if h == pe else _S_UREMOTE))
                elif pf_live and (op[3] == "extract" or op[3] == "drop"):
                    reason = "queue_hint"
                else:
                    line = addr // lw
                    reason = hazard.get(line)
                    if reason is None:
                        add((r_read, line, h, rcost[h], _S_READ))
            elif k == "p" or k == "v":
                if p[3]:
                    reason = "prefetch" if k == "p" else "vector"
                else:
                    add(noop[k])
            else:
                reason = "invalidate" if k == "i" else "bounds"
            if reason is None:
                continue
            # ``op`` ends the segment and takes the reference path.
            if events:
                self._commit(pe_obj, pe, ops[i0:i], events, writes,
                             counters)
                events.clear()
                writes.clear()
            _apply_op(machine, flags, pe, op, state)
            reasons[reason] = reasons.get(reason, 0) + 1
            hazard = self._hazards(pe_obj, stale)
            i0 = i + 1
        if events:
            self._commit(pe_obj, pe, ops[i0:], events, writes, counters)

    def _commit(self, pe_obj, pe: int, seg: list, events: list,
                writes: list, counters: ReplayCounters) -> None:
        """Scan one segment, scatter its writes into memory (and the
        oracle's shadow) and apply the priced run to the live machine."""
        machine = self.machine
        st = pe_obj.stats
        n = len(events)
        rows, lines, homes, costs, codes = zip(*events)
        n_reads = codes.count(_S_READ)
        tr = machine.tracer
        record = tags = None
        stalls = ()
        if self.proto is not None:
            clock, busy, hits, lf = protocol_scan(
                self.proto, pe, pe_obj.clock, st.busy_cycles, [0] * n,
                [r[0] for r in rows], lines, homes, costs)
        else:
            if tr is not None:
                record = [REC_NONE] * n
            # One scan row per op, as one iteration of n slots.
            out = replay_chunk(
                rows, 1, lines, homes, pe, pe_obj.cache.tags,
                pe_obj.cache.n_lines, pe_obj.clock, 0.0, (), 0, (),
                pe_obj.vectors.transfers, machine.params.cache_hit, 0.0,
                0.0, record=record, busy0=st.busy_cycles)
            clock, busy, stalls, tags = out.clock, out.busy, out.stalls, \
                out.tags
            hits, lf = out.counters["cache_hits"], out.counters["local_fills"]
        n_byp = codes.count(_S_BYPASS)
        n_ul = codes.count(_S_ULOCAL)
        n_ur = codes.count(_S_UREMOTE)
        n_all = n_reads + n_byp + n_ul + n_ur
        misses = n_reads - hits
        deltas = {"reads": n_all, "writes": len(writes), "cache_hits": hits,
                  "cache_misses": misses, "local_fills": lf,
                  "remote_fills": misses - lf, "bypass_reads": n_byp,
                  "uncached_local_reads": n_ul,
                  "uncached_remote_reads": n_ur}
        if self.proto is None:
            deltas["remote_writes"] = codes.count(_S_WREMOTE)
        memory = machine.memory
        oracle = machine.oracle
        if writes:
            by_array: Dict[str, tuple] = {}
            for name, flat, value in writes:
                fl, vl = by_array.setdefault(name, ([], []))
                fl.append(flat)
                vl.append(value)
            for name, (fl, vl) in by_array.items():
                memory.scatter(name, fl, vl)
                if oracle is not None:
                    oracle.shadow[name][fl] = vl
        if oracle is not None:
            # Segment reads touch no stale line, so each returns the
            # shadow value: checked without a per-value comparison.
            oracle.checked_reads += n_all
            oracle.checked_writes += len(writes)
        touched = set(lines)
        touched.discard(-1)
        commit_run(machine, pe, deltas, busy, clock, stalls, tags,
                   sorted(touched))
        if tr is not None:
            self._emit(tr, pe, seg, record, homes)
        counters.bulk_ops += n
        counters.bulk_runs += 1

    def _emit(self, tr, pe: int, seg: list, record: list,
              homes: list) -> None:
        """The machine events of one committed segment, in op order."""
        for op, code, h in zip(seg, record, homes):
            if op[0] == "r":
                if code == REC_HIT:
                    tr.emit(("read_hit", pe, op[1], op[2], 0))
                elif code == REC_MISS:
                    tr.emit(("read_miss", pe, op[1], op[2], int(h == pe)))
                else:
                    tr.emit(("bypass_fetch", pe, op[1], op[2],
                             "bypass" if op[3] == "bypass"
                             else "uncached_local" if h == pe
                             else "uncached_remote"))
            elif op[0] == "w":
                tr.emit(("write", pe, op[1], op[2], 1, int(h != pe)))


__all__ = ["TraceProgram", "TraceReplayResult", "ReplayCounters"]

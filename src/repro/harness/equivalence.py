"""Differential equivalence harness: batched backend vs reference.

The batched execution backend promises *bit-exactness*: for any program
it accepts, running with ``backend="batched"`` must leave the machine in
exactly the state the reference interpreter produces — same elapsed
cycles, same aggregate and per-PE statistics, same shared and private
array contents.  This module checks that promise mechanically so tests
and ad-hoc investigations share one comparison.

Use :func:`compare_backends` for a single program, or
:func:`check_workload` to build + (optionally) CCDP-transform a named
workload first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import fields as dc_fields
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..machine.params import MachineParams
from ..runtime.exec_config import SCHEMES, ExecutionConfig
from ..runtime.interp import RunResult, make_interpreter

if TYPE_CHECKING:
    from ..obs import Tracer


@dataclass
class EquivalenceReport:
    """Outcome of one reference-vs-batched comparison."""

    version: str
    elapsed_ref: float
    elapsed_batched: float
    batch_chunks: int          #: loop chunks the batched backend bulk-serviced
    batch_fallbacks: int       #: chunks that bound but fell back at run time
    mismatches: List[str] = field(default_factory=list)
    fault_fallbacks: int = 0   #: chunks the fault schedule forced to reference
    coverage: float = 0.0      #: fraction of refs the batched run bulk-served
    stats_batched: dict = field(default_factory=dict)  #: batched-run stats
    trace_events: int = 0      #: events compared (0 unless trace=True)
    #: the reference run itself, so a caller that also needs its final
    #: state or event stream does not simulate the program a third time
    result_ref: Optional[RunResult] = None    #: reference-backend run
    tracer_ref: Optional["Tracer"] = None     #: its tracer (trace=True)

    @property
    def exact(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        verdict = "exact" if self.exact else "MISMATCH"
        return (f"[{self.version}] {verdict}: elapsed={self.elapsed_batched} "
                f"chunks={self.batch_chunks} fallbacks={self.batch_fallbacks}"
                + ("".join("\n  " + m for m in self.mismatches)))


def compare_backends(program, params: MachineParams, version: str,
                     on_stale: str = "record", fault_plan=None,
                     oracle: bool = False,
                     trace: bool = False) -> EquivalenceReport:
    """Run ``program`` under both backends and diff every observable.

    Comparisons are exact (``==`` / ``array_equal``), never approximate:
    the batched backend is a drop-in replacement, not an approximation.
    With a ``fault_plan``, both backends realise the *same* seeded fault
    schedule (the batched backend routes faulted chunks to the reference
    path), so the diff must still be empty — that invariant is what the
    fault-matrix tests lean on.

    With ``trace=True``, both runs carry an unbounded
    :class:`~repro.obs.Tracer` and the full machine-event streams plus
    the per-epoch metrics timelines are diffed element by element — the
    batched backend synthesises events, so this is the strongest
    backend-equivalence check available.

    The report carries the reference run (:attr:`~EquivalenceReport.
    result_ref`, plus :attr:`~EquivalenceReport.tracer_ref` when traced)
    for callers that check more than backend agreement on it.
    """
    from ..obs import Tracer

    tracer_ref = Tracer() if trace else None
    tracer_bat = Tracer() if trace else None
    ref = make_interpreter(program, params,
                           ExecutionConfig.for_version(
                               version, on_stale, backend="reference",
                               fault_plan=fault_plan, oracle=oracle,
                               tracer=tracer_ref))
    bat = make_interpreter(program, params,
                           ExecutionConfig.for_version(
                               version, on_stale, backend="batched",
                               fault_plan=fault_plan, oracle=oracle,
                               tracer=tracer_bat))
    res_ref = ref.run()
    res_bat = bat.run()
    mism: List[str] = []
    if res_ref.elapsed != res_bat.elapsed:
        mism.append(f"elapsed: {res_ref.elapsed} != {res_bat.elapsed}")
    _diff_stats(ref.machine, bat.machine, mism)
    _diff_memory(ref.machine.memory, bat.machine.memory, mism)
    if ref.machine.faults is not None:
        fa = ref.machine.faults.stats.as_dict()
        fb = bat.machine.faults.stats.as_dict()
        for key in fa:
            if key != "batch_fallbacks" and fa[key] != fb[key]:
                mism.append(f"faults.{key}: {fa[key]} != {fb[key]}")
    trace_events = 0
    if trace:
        trace_events = _diff_traces(tracer_ref, tracer_bat, mism)
    return EquivalenceReport(
        version=version, elapsed_ref=res_ref.elapsed,
        elapsed_batched=res_bat.elapsed,
        batch_chunks=getattr(bat, "batch_chunks", 0),
        batch_fallbacks=getattr(bat, "batch_fallbacks", 0),
        mismatches=mism,
        fault_fallbacks=getattr(bat, "fault_fallbacks", 0),
        coverage=res_bat.batched_coverage,
        stats_batched=bat.machine.stats.as_dict(),
        trace_events=trace_events, result_ref=res_ref, tracer_ref=tracer_ref)


def check_workload(name: str, params: MachineParams, version: str,
                   on_stale: str = "record", fault_plan=None,
                   oracle: bool = False, transform: Optional[bool] = None,
                   ccdp_overrides: Optional[dict] = None,
                   trace: bool = False, **size_args) -> EquivalenceReport:
    """Build workload ``name``; CCDP-transform it when ``version``'s
    scheme runs the transformed program (or ``transform`` forces it
    either way — e.g. to exercise the prefetch instructions the
    transform inserts under SEQ/BASE semantics); then
    :func:`compare_backends`.  ``ccdp_overrides`` are passed to
    :class:`CCDPConfig` (``enable_vpg=False`` steers the scheduler to
    line prefetches, the batched replay path's diet)."""
    from ..coherence import CCDPConfig, ccdp_transform
    from ..workloads import workload

    program = workload(name).build(**size_args)
    if transform if transform is not None else SCHEMES[version].transformed:
        config = CCDPConfig(machine=params).with_(**(ccdp_overrides or {}))
        program, _ = ccdp_transform(program, config)
    return compare_backends(program, params, version, on_stale,
                            fault_plan=fault_plan, oracle=oracle, trace=trace)


def _diff_stats(machine_a, machine_b, out: List[str]) -> None:
    da = machine_a.stats.as_dict()
    db = machine_b.stats.as_dict()
    for key in da:
        if da[key] != db[key]:
            out.append(f"stats.{key}: {da[key]} != {db[key]}")
    for pe, (sa, sb) in enumerate(zip(machine_a.stats.per_pe,
                                      machine_b.stats.per_pe)):
        for f in dc_fields(sa):
            va, vb = getattr(sa, f.name), getattr(sb, f.name)
            if va != vb:
                out.append(f"pe{pe}.{f.name}: {va} != {vb}")
    for pe, (pa, pb) in enumerate(zip(machine_a.pes, machine_b.pes)):
        if pa.clock != pb.clock:
            out.append(f"pe{pe}.clock: {pa.clock} != {pb.clock}")
        if not np.array_equal(pa.cache.tags, pb.cache.tags):
            out.append(f"pe{pe}.cache.tags differ")
        elif not np.array_equal(pa.cache.data, pb.cache.data):
            out.append(f"pe{pe}.cache.data differ")
        elif not np.array_equal(pa.cache.vers, pb.cache.vers):
            out.append(f"pe{pe}.cache.vers differ")
        # Prefetch hardware state: the batched replay path rebuilds the
        # queue wholesale, so compare its contents, its aggregate
        # counters, and the rule-2 dropped-line bookkeeping exactly.
        if pa.queue.snapshot() != pb.queue.snapshot():
            out.append(f"pe{pe}.queue.entries: {pa.queue.snapshot()} != "
                       f"{pb.queue.snapshot()}")
        for counter in ("issued", "dropped", "high_water"):
            va, vb = getattr(pa.queue, counter), getattr(pb.queue, counter)
            if va != vb:
                out.append(f"pe{pe}.queue.{counter}: {va} != {vb}")
        if pa.dropped_lines != pb.dropped_lines:
            out.append(f"pe{pe}.dropped_lines: {sorted(pa.dropped_lines)} != "
                       f"{sorted(pb.dropped_lines)}")
        if pa.last_prefetch_pe != pb.last_prefetch_pe:
            out.append(f"pe{pe}.last_prefetch_pe: {pa.last_prefetch_pe} != "
                       f"{pb.last_prefetch_pe}")
        va = [(t.array, t.line_lo, t.line_hi, t.completion)
              for t in pa.vectors.transfers]
        vb = [(t.array, t.line_lo, t.line_hi, t.completion)
              for t in pb.vectors.transfers]
        if va != vb:
            out.append(f"pe{pe}.vectors.transfers: {va} != {vb}")
        if pa.vectors.issued != pb.vectors.issued:
            out.append(f"pe{pe}.vectors.issued: {pa.vectors.issued} != "
                       f"{pb.vectors.issued}")
    _diff_protocol(machine_a, machine_b, out)


def _diff_protocol(machine_a, machine_b, out: List[str]) -> None:
    """Diff the hardware-protocol internals: every PE's live line states
    (an entry whose line is no longer the set's tag reads as I), the
    holder bitmasks, phase, the snooping bus and the directory."""
    pa, pb = machine_a.protocol, machine_b.protocol
    if pa is None:
        return

    def first_diff(name: str, da: dict, db: dict) -> None:
        if da != db:
            key = min(k for k in da.keys() | db.keys()
                      if da.get(k) != db.get(k))
            out.append(f"protocol.{name}[{key}]: {da.get(key)} != "
                       f"{db.get(key)}")

    for pe in range(pa.n_pes):
        first_diff(f"pe{pe}.states", *(
            {e >> 2: proto.state(pe, e >> 2) for e in proto.st[pe]
             if proto.state(pe, e >> 2) != "I"} for proto in (pa, pb)))
    first_diff("holders", pa.holders, pb.holders)
    if pa.phase != pb.phase:
        out.append(f"protocol.phase: {pa.phase} != {pb.phase}")
    if hasattr(pa, "bus"):
        for attr in ("free_at", "transactions", "busy_cycles",
                     "stall_cycles"):
            va, vb = getattr(pa.bus, attr), getattr(pb.bus, attr)
            if va != vb:
                out.append(f"protocol.bus.{attr}: {va} != {vb}")
    if hasattr(pa, "entries"):
        first_diff("entries", *(
            {line: (e.sharers, e.owner, e.bcast)
             for line, e in proto.entries.items()} for proto in (pa, pb)))
        first_diff("home_of", pa.home_of, pb.home_of)
        if pa.free_at != pb.free_at:
            out.append(f"protocol.free_at: {pa.free_at} != {pb.free_at}")


def _diff_traces(tracer_ref, tracer_bat, out: List[str]) -> int:
    """Diff two full (unsampled, uncapped) traces: event streams, per-kind
    counters and metrics timelines.  Returns the number of events in the
    reference stream."""
    ev_a = tracer_ref.events
    ev_b = tracer_bat.events
    if len(ev_a) != len(ev_b):
        out.append(f"trace length: {len(ev_a)} != {len(ev_b)}")
    for i, (a, b) in enumerate(zip(ev_a, ev_b)):
        if a != b:
            lo = max(0, i - 2)
            ctx_a = ev_a[lo:i + 2]
            ctx_b = ev_b[lo:i + 2]
            out.append(f"trace event {i}: {a} != {b} "
                       f"(ref context {ctx_a}, batched context {ctx_b})")
            break
    if tracer_ref.counts != tracer_bat.counts:
        out.append(f"trace counts: {tracer_ref.counts} != "
                   f"{tracer_bat.counts}")
    rows_a = [r.as_dict() for r in tracer_ref.timeline]
    rows_b = [r.as_dict() for r in tracer_bat.timeline]
    if len(rows_a) != len(rows_b):
        out.append(f"timeline length: {len(rows_a)} != {len(rows_b)}")
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if ra != rb:
            out.append(f"timeline row {i}: {ra} != {rb}")
            break
    return len(ev_a)


def _diff_memory(mem_a, mem_b, out: List[str]) -> None:
    for array, values in mem_a.values.items():
        if not np.array_equal(values, mem_b.values[array]):
            bad = int(np.flatnonzero(values != mem_b.values[array])[0])
            out.append(f"shared {array}[{bad}]: {values[bad]} != "
                       f"{mem_b.values[array][bad]}")
    for array, versions in mem_a.versions.items():
        if not np.array_equal(versions, mem_b.versions[array]):
            out.append(f"versions {array} differ")
    for array, values in mem_a.private_values.items():
        if not np.array_equal(values, mem_b.private_values[array]):
            out.append(f"private {array} differs")


__all__ = ["EquivalenceReport", "compare_backends", "check_workload"]

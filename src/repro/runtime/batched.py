"""Batched execution backend: bulk chunk servicing for affine loop bodies.

The reference interpreter services every memory reference with one
:meth:`~repro.machine.machine.Machine.read` / ``write`` call — exact, but
slow (dict lookups, NumPy scalar indexing, closure dispatch per event).
This backend recognises *batchable chunks* — innermost loops (serial inner
loops and innermost DOALL chunks) whose bodies are straight-line affine
assignments — and services each whole chunk in two passes:

1. a **value pass** that computes every right-hand side and applies
   every memory write with *exactly* the reference semantics but no
   machine bookkeeping: whole-chunk NumPy statements when every operation
   is provably bit-identical elementwise and the chunk is fused or has
   at least ``MIN_VECTOR_ITERS`` iterations, else one generated Python
   function per plan (``seq_fn``) holding the chunk's ``for`` loop, with
   the reference's float operations in the reference's order, register
   promotion as plain locals and write-through version bumps inline
   (below the crossover its cost per iteration beats the NumPy pass's
   fixed cost);
2. a **timing pass** that prices the chunk's events and commits them.
   A chunk of at least ``MIN_VECTOR_ITERS`` iterations (or a fused one)
   whose reads and writes are plain takes the NumPy classify pass: one
   warm :func:`~repro.machine.batchops.classify_events` call replays
   the read trace against the direct-mapped cache, and latency tables
   turn hit/miss outcomes and owner vectors into cycle sums.  Every
   other chunk — a shorter one, one with ``PrefetchLine`` statements,
   one touching a resident line with a stale word, or one whose
   leftover queue entries / dropped-line marks alias a cacheable read
   — takes :func:`~repro.machine.batchops.replay_chunk` instead: an
   exact scan against *shadow* copies of the PE's tags, queue and
   dropped set (invalidate-before-prefetch, the DTB chain, queue
   coalesce/capacity/reclaim, capacity-drop → bypass-fetch
   degradation, extract and vector-transfer stalls, stale-word reads),
   which flags the two inexpressible cases — a write-through into a
   line ghosted by an in-chunk invalidation, and a read of a stale
   word — as hazards before anything is mutated.  Both pricers read
   one bound chunk (:class:`_Chunk`): a short chunk binds as Python
   lists, each slot a base plus its stride per iteration, and a long
   one as an iterations x slots address matrix, each form derived from
   the other on first use.  They hand their counters, clock, stalls,
   tag diff and per-event outcome codes to one commit
   (:func:`~repro.machine.batchops.commit_run`, which trace replay
   shares), which refills the lines the chunk installed and patches
   the words it wrote into lines it found resident; the tracer is fed
   through one event synthesizer.

Exactness contract: a committed chunk leaves the machine in *bit-identical*
state (array values, versions, cache tags/data, per-PE stats, clocks) to
the reference interpreter.  This rests on invariants that are checked at
**bind time**, before anything is mutated; a chunk that fails any guard
falls back to the reference per-iteration path, so the fallback is always
exact too:

* the loop body is all-``Assign``/``PrefetchLine``, every array reference
  affine, bounds array-free, no short-circuit ``and``/``or``
  (data-dependent event order);
* every affine-form variable is bound to a Python int and every subscript
  stays in bounds across the whole chunk (else the reference path raises
  the exact ``IndexError`` mid-chunk; prefetch subscripts are exempt —
  beyond-edge look-ahead is legal and replayed as an issue-cost no-op);
* a *stale* cached word (one a remote write left behind memory) is
  never read: the scan replays lines holding stale words word by word
  (a fresh word hits, a write-through refreshes its word, an
  invalidation freezes the line's data) and falls back on a stale-word
  read, so NAIVE's stale reads are counted by the reference path, and
  the commit patches only the words the chunk wrote into such a line.
  The classify pass refills whole lines, so a chunk it would price
  that touches a stale line scans instead.  A one-PE machine or a
  hardware protocol skips the stale test: only another PE's write
  leaves a copy stale, and a protocol kills remote copies;
* all event costs are integral, which makes bulk cycle summation exact
  (adding integers to a float clock is associative below 2**53);
* race checking and read tracing are off (those need per-event order).
  This one, like fault injection, the oracle and a traced protocol
  run, holds for the whole run or not at all: a run that fails it
  compiles no plan (:meth:`BatchedInterpreter._run_fallback_reason`).

Chunks under a hardware coherence protocol (MESI, directory) keep the
value pass and swap the timing pass for :meth:`_protocol_timing_pass`,
which runs :func:`~repro.machine.batchops.protocol_scan` (trace replay
runs the same scan): one Python pass over the chunk's events in program
order charges read hits, private accesses and owner writes (the
protocol table's silent entry) inline and hands every other shared miss
and write to the protocol's own ``read_miss``/``write`` at the event's
exact pre-event clock.  This is exact because a DOALL epoch runs PE by
PE: while one PE's chunk runs, no other PE touches the state
tables, the bus or the home horizons.  Traced protocol runs plan
nothing; chunks with prefetch or vector state fall back.

Chunks containing ``PrefetchVector``/``InvalidateLines`` statements,
``If``s, calls or nested loops are never planned; they run on the
reference path unchanged (each ``PrefetchVector`` execution is counted
as a ``vector_prefetch`` skip).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..analysis.affine import AffineForm, affine_ref
from ..ir.expr import (ArrayRef, BinOp, Expr, FloatConst, IntConst,
                       IntrinsicCall, RefMode, SymConst, UnaryOp, VarRef)
from ..ir.stmt import (Assign, Loop, LoopKind, PrefetchLine,
                       PrefetchVector, Stmt)
from ..machine.batchops import (INSTALL, OUT_HIT, RE_COST, RE_PF, RE_READ,
                                RE_WRITE, READ, REC_DTB_FLAG, REC_EXTRACT,
                                REC_HIT, REC_KILL_FLAG, REC_MISS, REC_NONE,
                                REC_PF_COALESCE, REC_PF_ISSUE,
                                STALL_VECTOR, WRITE, classify_events,
                                commit_run, latency_table, protocol_scan,
                                replay_chunk, touches_stale)
from .interp import Interpreter, RunResult

#: Minimum chunk size (iterations x memory events) worth the bind
#: overhead: the measured crossover with the per-reference path (DESIGN
#: §5b, "Bulk path by size").
MIN_BATCH_EVENTS = 8

#: Fewest iterations at which a non-fused chunk tries the NumPy value pass;
#: shorter chunks run the plan's generated scalar pass (``seq_fn``).
MIN_VECTOR_ITERS = 32


def _seq_div(a, b):
    """Division exactly as the reference ``/`` closure performs it."""
    if isinstance(a, int) and isinstance(b, int):
        return int(a / b)  # Fortran integer division truncates
    return a / b


class _Slot:
    """One memory-touching operation of the loop body (one per iteration).

    ``role`` is 'cr' (cacheable read), 'ur' (uncached/bypass read), 'w'
    (write) or 'pf' (line prefetch).  ``address`` is the 0-based
    flat-element affine form; ``dims`` are the 1-based per-dimension forms
    used for bounds checking."""

    __slots__ = ("role", "array", "base", "shared", "bypass", "cacheable",
                 "var_coeff", "env_coeffs", "const0", "dim_checks", "extra",
                 "inval")

    def __init__(self, role: str, array: str, base: int, shared: bool,
                 bypass: bool, cacheable: bool,
                 address: AffineForm, dims, shape, var: str,
                 sym_value, extra: float) -> None:
        self.role = role
        self.array = array
        self.base = base
        self.shared = shared
        self.bypass = bypass
        self.cacheable = cacheable
        self.var_coeff = address.coeff(var)
        self.env_coeffs = tuple((n, c) for n, c in address.coeffs if n != var)
        self.const0 = address.const + sum(
            c * sym_value(s) for s, c in address.sym_coeffs)
        # Per-dimension (const0, env_coeffs, var_coeff, extent) for bounds.
        checks = []
        for form, extent in zip(dims, shape):
            dconst = form.const + sum(c * sym_value(s)
                                      for s, c in form.sym_coeffs)
            denv = tuple((n, c) for n, c in form.coeffs if n != var)
            checks.append((dconst, denv, form.coeff(var), extent))
        self.dim_checks = tuple(checks)
        self.extra = extra              # CRAFT overhead folded into latency
        self.inval = False              # 'pf' only: invalidate before issue

    def variables(self) -> Set[str]:
        out = {n for n, _ in self.env_coeffs}
        for _, denv, _, _ in self.dim_checks:
            out |= {n for n, _ in denv}
        return out

    def pf_mask(self, env: dict, box: tuple,
                values: np.ndarray) -> Optional[np.ndarray]:
        """In-bounds mask of a prefetch slot over the chunk's iterations.
        Beyond-edge look-ahead is legal for prefetches (the reference
        charges the bare issue cost and drops), so out-of-bounds
        iterations are masked rather than rejecting the chunk.  ``None``
        when the chunk's box is in bounds (the corner argument of
        :func:`_in_box`), i.e. every iteration is."""
        if _in_box(_box_checks([self]), env, box):
            return None
        mask = np.ones(len(values), dtype=bool)
        for dconst, denv, dcoeff, extent in self.dim_checks:
            d0 = dconst
            for name, c in denv:
                d0 += c * env[name]
            dval = d0 + dcoeff * values
            mask &= (1 <= dval) & (dval <= extent)
        return mask


def _box_checks(slots) -> tuple:
    """The bounds forms of ``slots`` merged for :func:`_in_box`: one
    ``(lowest const, highest const, env coeffs, var coeff, extent)`` per
    distinct form up to its constant.  Forms that differ only by a
    constant shift one interval, so its two ends decide for all."""
    merged: dict = {}
    for slot in slots:
        for dconst, denv, dcoeff, extent in slot.dim_checks:
            key = (denv, dcoeff, extent)
            lo, hi = merged.get(key, (dconst, dconst))
            merged[key] = (min(lo, dconst), max(hi, dconst))
    return tuple((lo, hi) + key for key, (lo, hi) in merged.items())


def _in_box(checks: tuple, env: dict, box: tuple) -> bool:
    """True when every subscript of ``checks`` (:func:`_box_checks`)
    stays inside its array bounds over the chunk's loop box ``(vmin,
    vmax, outer, omin, omax)``: the inner variable's range, plus the
    outer variable's for a fused chunk (``outer`` is None otherwise).
    The per-dimension forms are affine in the loop variables, so the
    sign-aware box corners — actual chunk members — decide exactly what
    a per-iteration check would."""
    vmin, vmax, outer, omin, omax = box
    for clo, chi, denv, dcoeff, extent in checks:
        d0 = 0
        ocoeff = 0
        for name, c in denv:
            if name == outer:
                ocoeff = c
            else:
                d0 += c * env[name]
        lo = d0 + clo \
            + (dcoeff * vmin if dcoeff >= 0 else dcoeff * vmax) \
            + (ocoeff * omin if ocoeff >= 0 else ocoeff * omax)
        hi = d0 + chi \
            + (dcoeff * vmax if dcoeff >= 0 else dcoeff * vmin) \
            + (ocoeff * omax if ocoeff >= 0 else ocoeff * omin)
        if not (1 <= lo and hi <= extent):
            return False
    return True


class _Plan:
    """Compiled batched form of one innermost loop."""

    __slots__ = ("var", "registers", "final_clear", "slots",
                 "cached_idx", "uncached_idx", "write_idx", "pf_idx",
                 "const_per_iter", "n_events", "env_vars",
                 "touches_shared_cache", "const_before", "tail_const",
                 "assigned", "vec_stmts", "reg_ops", "alias_pairs",
                 "addr_vars", "var_coef", "const0", "env_coef", "base_row",
                 "box", "pf_box", "extra", "c_cr", "c_crsh", "k_crpv", "c_ur",
                 "c_urnb", "n_bypass", "c_wsh", "c_wpv", "c_pfsh", "c_pfpv",
                 "c_fill", "fill_private", "c_stale", "addr0", "env_cols",
                 "var_coefs", "event_kinds", "seq_fn", "protocol_bulk",
                 "protocol_rows", "scan_rows")

    def __init__(self, var: str, registers: dict, final_clear: bool,
                 slots: List[_Slot],
                 const_per_iter: float, const_before: Sequence[float],
                 tail_const: float, assigned: Tuple[str, ...],
                 vec_stmts, reg_ops) -> None:
        self.var = var
        self.registers = registers
        self.final_clear = final_clear
        self.slots = slots
        self.const_before = np.asarray(const_before, dtype=np.float64)
        self.tail_const = tail_const
        self.assigned = assigned
        self.vec_stmts = vec_stmts  # vectorised statement ops, or None
        self.reg_ops = reg_ops      # register-state replay for the epilogue
        self.seq_fn = None          # scalar value pass, set once compiled
        # Same-array (write, other) slot pairs that the bind-time alias
        # check must prove elementwise-identical or fully disjoint before
        # the vectorised value pass may run.  Pairs with identical affine
        # forms bind to identical vectors under every environment, so they
        # are provably safe here and skipped at run time.
        self.alias_pairs = [
            (w, j) for w, sw in enumerate(slots) if sw.role == "w"
            for j, sj in enumerate(slots)
            if j != w and sj.role != "pf" and sj.array == sw.array
            and not (sj.var_coeff == sw.var_coeff
                     and sj.env_coeffs == sw.env_coeffs
                     and sj.const0 == sw.const0)]
        # One (iterations x slots) flat matrix binds a chunk: each slot's
        # flat index is const0 + var_coeff * v + sum(coeff * env[name]).
        self.addr_vars = tuple(sorted({n for s in slots
                                       for n, _ in s.env_coeffs}))
        self.var_coef = np.array([s.var_coeff for s in slots],
                                 dtype=np.int64)
        self.const0 = np.array([s.const0 for s in slots], dtype=np.int64)
        self.env_coef = np.array(
            [[dict(s.env_coeffs).get(n, 0) for s in slots]
             for n in self.addr_vars], dtype=np.int64).reshape(
                 len(self.addr_vars), len(slots))
        self.base_row = np.array([s.base for s in slots], dtype=np.int64)
        # The same forms as Python lists, for chunks bound as lists: a
        # slot's global address is its base plus var_coeff * v, the base
        # addr0 plus each address variable times its env_cols entry.
        self.addr0 = (self.const0 + self.base_row).tolist()
        self.env_cols = self.env_coef.tolist()
        self.var_coefs = self.var_coef.tolist()
        # Bounds forms of the box check, merged.  Prefetch slots are
        # masked, not refused (see pf_mask): they pass pf_box as a group
        # or are masked one by one.
        self.box = _box_checks(s for s in slots if s.role != "pf")
        self.pf_box = _box_checks(s for s in slots if s.role == "pf")
        # Every shared read/write slot carries the same CRAFT extra.
        self.extra = next((s.extra for s in slots if s.shared
                           and s.role != "pf"), 0.0)

        def cols(keep) -> np.ndarray:
            return np.array([i for i, s in enumerate(slots) if keep(s)],
                            dtype=np.intp)

        # Column sets of the chunk matrices, by what reads them.
        self.c_cr = cols(lambda s: s.role == "cr")
        self.c_crsh = cols(lambda s: s.role == "cr" and s.shared)
        self.k_crpv = np.flatnonzero(
            [not slots[i].shared for i in self.c_cr.tolist()])
        self.c_ur = cols(lambda s: s.role == "ur")
        self.c_urnb = cols(lambda s: s.role == "ur" and not s.bypass)
        self.n_bypass = sum(s.role == "ur" and s.bypass for s in slots)
        self.c_wsh = cols(lambda s: s.role == "w" and s.shared)
        self.c_wpv = cols(lambda s: s.role == "w" and not s.shared)
        self.c_pfsh = cols(lambda s: s.role == "pf" and s.shared)
        self.c_pfpv = cols(lambda s: s.role == "pf" and not s.shared)
        self.c_fill = cols(lambda s: s.role in ("cr", "w") and s.cacheable
                           and s.shared)
        self.fill_private = [i for i, s in enumerate(slots)
                             if s.role in ("cr", "w") and s.cacheable
                             and not s.shared]
        self.c_stale = cols(lambda s: s.role != "ur" and s.shared
                            and s.cacheable)
        self.scan_rows: dict = {}  # pe -> per-slot scan rows (_scan_rows)
        self.cached_idx = self.c_cr.tolist()
        self.uncached_idx = self.c_ur.tolist()
        self.write_idx = [i for i, s in enumerate(slots) if s.role == "w"]
        self.pf_idx = [i for i, s in enumerate(slots) if s.role == "pf"]
        self.const_per_iter = const_per_iter
        self.n_events = len(slots)
        env_vars: Set[str] = set()
        for slot in slots:
            env_vars |= slot.variables()
        self.env_vars = tuple(env_vars)
        self.touches_shared_cache = bool(self.c_stale.size)
        # Under a hardware protocol only cached reads and cacheable writes
        # have a bulk timing pass (see _protocol_timing_pass).
        self.protocol_bulk = all(
            s.role == "cr" or (s.role == "w" and s.cacheable) for s in slots)
        self.protocol_rows = None  # per-slot constants, built on first use
        # Every machine-event kind a chunk of this plan could emit (a
        # conservative superset): the batched backend checks it against
        # the tracer's sampling to pick full synthesis vs counts-only.
        kinds: Set[str] = set()
        if self.cached_idx:
            kinds.update(("read_hit", "read_miss", "pf_complete"))
            if any(slots[i].shared for i in self.cached_idx):
                kinds.add("bypass_fetch")
        if self.uncached_idx:
            kinds.add("bypass_fetch")
        if self.write_idx:
            kinds.add("write")
        if self.pf_idx:
            kinds.update(("pf_issue", "pf_coalesce", "pf_drop"))
            if any(slots[i].inval for i in self.pf_idx):
                kinds.add("invalidate")
        self.event_kinds = frozenset(kinds)


class _Chunk:
    """One bound chunk: ``T`` iterations (rows) of the plan's ``S`` slots
    (columns) in the reference's event order.  A chunk of fewer than
    ``MIN_VECTOR_ITERS`` iterations is bound as lists (``listed``):
    every event's global word address, iteration-major, with its line
    and owner (``homes``); any other as the ``(T, S)`` address matrix
    ``A``.  Each form, and the flat, line, owner (-1 outside shared
    arrays), ``owner == pe`` and latency matrices, is derived on first
    use.  An out-of-bounds prefetch look-ahead (event index in ``oob``)
    addresses its array's first word and has line -1 in ``lines``."""

    __slots__ = ("plan", "interp", "pe", "T", "listed", "V", "oob", "_A",
                 "_F", "_L", "_addrs", "_lines", "_homes", "_own", "_eq",
                 "_lat")

    def __init__(self, interp, plan: _Plan, pe: int, T: int, A=None, V=None,
                 addrs=None, oob=()) -> None:
        self.interp = interp
        self.plan = plan
        self.pe = pe
        self.T = T
        self.listed = A is None
        self.V = V
        self.oob = oob
        self._A = A
        self._addrs = addrs
        self._F = self._L = self._lines = self._homes = None
        self._own = self._eq = None
        self._lat: dict = {}

    @property
    def A(self) -> np.ndarray:
        if self._A is None:
            self._A = np.array(self._addrs, dtype=np.int64).reshape(
                self.T, self.plan.n_events)
        return self._A

    @property
    def F(self) -> np.ndarray:
        if self._F is None:
            self._F = self.A - self.plan.base_row
        return self._F

    @property
    def L(self) -> np.ndarray:
        if self._L is None:
            self._L = self.A // self.interp.params.line_words
        return self._L

    @property
    def addrs(self) -> list:
        if self._addrs is None:
            self._addrs = self._A.ravel().tolist()
        return self._addrs

    @property
    def lines(self) -> list:
        if self._lines is None:
            lw = self.interp.params.line_words
            lines = self._lines = [a // lw for a in self.addrs]
            for i in self.oob:
                lines[i] = -1
        return self._lines

    @property
    def homes(self) -> list:
        if self._homes is None:
            if self.listed:
                interp = self.interp
                own = interp.owner_list
                if own is None:  # the owner plane as a list, once a run
                    own = interp.owner_list = \
                        interp.machine.addr_map.owner_plane().tolist()
                self._homes = [own[a] for a in self._addrs]
            else:
                self._homes = self.owners().ravel().tolist()
        return self._homes

    def owners(self) -> np.ndarray:
        if self._own is None:
            self._own = self.interp.machine.addr_map.owner_plane()[self.A]
        return self._own

    def local(self) -> np.ndarray:
        if self._eq is None:
            self._eq = self.owners() == self.pe
        return self._eq

    def latency(self, kind: str, extra: float) -> np.ndarray:
        lat = self._lat.get((kind, extra))
        if lat is None:
            table = latency_table(self.interp.machine, self.pe, kind, extra)
            lat = self._lat[(kind, extra)] = table[self.owners()]
        return lat

    def n_local(self, cols) -> int:
        """Events of columns ``cols`` whose home is this PE."""
        if self.listed:
            homes, S = self.homes, self.plan.n_events
            return sum(homes[k::S].count(self.pe) for k in cols.tolist())
        return int(np.count_nonzero(self.local()[:, cols]))

    def distinct_lines(self, cols) -> list:
        """Sorted distinct lines of columns ``cols`` (a listed chunk's
        out-of-bounds prefetch look-aheads, line -1, left out)."""
        if self.listed:
            lines, S = self.lines, self.plan.n_events
            out = set()
            for k in cols:
                out.update(lines[k::S])
            out.discard(-1)
            return sorted(out)
        lines = self.L[:, cols]
        lo = lines.min()
        return (np.flatnonzero(np.bincount((lines - lo).ravel())) + lo
                ).tolist()


class _Ineligible(Exception):
    """Raised during plan compilation when the loop cannot be batched."""


class _VecIneligible(Exception):
    """Raised when a body cannot use the vectorised value pass (the
    generated scalar pass still applies)."""


def _to_float(x):
    if isinstance(x, np.ndarray):
        return x.astype(np.float64)
    return float(x)


def _integral(*costs: float) -> bool:
    return all(float(c).is_integer() for c in costs)


def _pending_hit(pend: np.ndarray, lines: np.ndarray) -> bool:
    """True when any of ``lines`` is in the sorted, non-empty ``pend``."""
    at = np.minimum(np.searchsorted(pend, lines), pend.size - 1)
    return bool((pend[at] == lines).any())


def _straight_line(loop: Loop) -> bool:
    """True when ``loop``'s body could form a chunk: only assignments
    and line prefetches (the shape every plan needs)."""
    return all(isinstance(s, (Assign, PrefetchLine)) for s in loop.body)


class BatchedInterpreter(Interpreter):
    """Interpreter whose innermost loops execute as bulk batched chunks.

    Only the chunk-servicing strategy changes; program compilation, epoch
    control, scheduling and all non-batchable statements run through the
    inherited reference machinery."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._serial_plans: Dict[int, tuple] = {}
        self._doall_plans: Dict[int, Optional[_Plan]] = {}
        self._fused_plans: Dict[int, Optional[tuple]] = {}
        #: chunks serviced in bulk / chunks that fell back at bind time
        self.batch_chunks = 0
        self.batch_fallbacks = 0
        #: per-reason-code fallback counts (see :meth:`_fall`); also records
        #: "tiny_chunk" skips, which are not counted as fallbacks
        self.fallback_reasons: Dict[str, int] = {}
        #: chunks routed to the reference path because fault injection or
        #: the coherence oracle was active (subset of batch_fallbacks)
        self.fault_fallbacks = 0
        #: memory references (reads+writes) serviced by committed chunks
        self.batch_refs = 0
        p = self.params
        #: prefetch replay needs integral issue/extract costs for exact
        #: bulk busy-cycle summation (the clock itself is scanned exactly)
        self._replay_costs_ok = _integral(p.prefetch_issue, p.dtb_setup,
                                          p.prefetch_extract)
        #: the scan's fixed costs: hit, extract, reclaim lag, issue, DTB
        self._scan_costs = (float(p.cache_hit), float(p.prefetch_extract),
                            4 * float(p.remote_base), float(p.prefetch_issue),
                            float(p.dtb_setup))
        #: protocol chunks set each transaction's start clock from integral
        #: partial sums, so bus and directory costs must be integral too
        self._protocol_costs_ok = _integral(p.bus_cycle, p.dir_msg_base,
                                            p.dir_proc)
        #: reason code when every chunk of the run must take the reference
        #: path (set by :meth:`run`); then no plan is ever compiled
        self._forced: Optional[str] = None
        self.owner_list: Optional[list] = None
        #: (pe, kind, extra, shared) -> a scan row's cost table
        self._scan_tables: dict = {}
        #: False where no resident copy can be stale: only another PE's
        #: write leaves a copy behind memory, so never on one PE, and a
        #: hardware protocol kills remote copies
        self._stale_possible = (self.machine.protocol is None
                                and len(self.machine.pes) > 1)

    def run(self) -> RunResult:
        # Decided once, before any statement compiles, so a race check
        # armed on the machine after construction is seen too.
        self._forced = self._run_fallback_reason()
        return super().run()

    def _run_fallback_reason(self) -> Optional[str]:
        """Reason code when this machine sends every chunk to the
        reference path, else None.  Race checking and address tracing
        need per-event order; the protocol timing pass emits no tracer
        events and needs integral bus/directory costs; fault injection
        and the oracle are defined over the reference event order."""
        machine = self.machine
        if machine.race_check or machine.trace_enabled:
            return "trace_or_race"
        if machine.protocol is not None and (
                machine.tracer is not None or not self._protocol_costs_ok):
            return "protocol"
        if machine.faults is not None or machine.oracle is not None:
            return "fault_oracle"
        return None

    def _forced_fall(self) -> None:
        """Count one chunk a run-wide fallback sends to the reference
        path, under the run-wide reason code."""
        self._fall(self._forced)
        if self._forced == "fault_oracle":
            self.fault_fallbacks += 1
            if self.machine.faults is not None:
                self.machine.faults.stats.batch_fallbacks += 1

    # ------------------------------------------------------------------
    # integration points
    # ------------------------------------------------------------------
    def _build_stmt(self, stmt: Stmt):
        if isinstance(stmt, PrefetchVector):
            return self._noted_vector(super()._build_stmt(stmt))
        if not (isinstance(stmt, Loop) and stmt.kind == LoopKind.SERIAL):
            return super()._build_stmt(stmt)
        if self._forced is not None:
            ref_fn = super()._build_stmt(stmt)
            if not _straight_line(stmt):
                return ref_fn
            fall = self._forced_fall

            def run_forced_loop(env: dict, pe: int) -> None:
                fall()
                ref_fn(env, pe)

            return run_forced_loop
        # Compile-time context the reference body closures see (captured
        # before super() pushes the loop's own register context).
        outer_ctxs = list(self._reg_stack)
        loop_vars = (set(self._loopvar_stack) | set(self._region_vars)
                     | {stmt.var})
        ref_fn = super()._build_stmt(stmt)
        plan = self._compile_plan(stmt, self._loop_ctx[stmt.uid], outer_ctxs,
                                  loop_vars, final_clear=True)
        if plan is None:
            return ref_fn
        lo_fn = self._compile_expr(stmt.lower)
        hi_fn = self._compile_expr(stmt.upper)
        step_fn = self._compile_expr(stmt.step)
        bound_vars = frozenset(
            n.name for b in (stmt.lower, stmt.upper, stmt.step)
            for n in b.walk() if isinstance(n, VarRef))
        self._serial_plans[stmt.uid] = (plan, lo_fn, hi_fn, step_fn,
                                        bound_vars)

        def run_batched_loop(env: dict, pe: int) -> None:
            # Bounds are array-free (plan eligibility), so evaluating them
            # here charges nothing; the reference fallback re-evaluates the
            # same pure closures.
            lo = int(lo_fn(env, pe))
            hi = int(hi_fn(env, pe))
            step = int(step_fn(env, pe))
            values = range(lo, hi + (1 if step > 0 else -1), step)
            if not self._exec_chunk(plan, env, pe, values):
                ref_fn(env, pe)

        return run_batched_loop

    def _noted_vector(self, ref_fn):
        """Wrap a ``PrefetchVector`` closure so each execution is recorded
        as a ``vector_prefetch`` skip: vector prefetches are never planned,
        and coverage (which counts refs) cannot show their cost."""
        reasons = self.fallback_reasons

        def run_vector(env: dict, pe: int) -> None:
            reasons["vector_prefetch"] = reasons.get("vector_prefetch", 0) + 1
            ref_fn(env, pe)

        return run_vector

    def _iterate_doall(self, loop: Loop, env_p: dict, pe: int,
                       values: Sequence[int], run_iteration) -> None:
        if self._forced is not None:
            if values and _straight_line(loop):
                self._forced_fall()
            for value in values:
                run_iteration(env_p, pe, value)
            return
        # Fused path: a doall whose body is exactly one planned serial loop
        # runs all of this PE's (outer, inner) iterations as ONE bulk trace.
        entry = self._fused_entry(loop)
        if entry is not None and self._exec_fused(loop, entry, env_p, pe,
                                                 values):
            return
        plan = self._doall_plans.get(loop.uid, False)
        if plan is False:
            loop_vars = {loop.var} | set(self._region_vars)
            plan = self._compile_plan(loop, self._loop_ctx[loop.uid], [],
                                      loop_vars, final_clear=False)
            self._doall_plans[loop.uid] = plan
        if plan is not None and self._exec_chunk(plan, env_p, pe, values):
            return
        for value in values:
            run_iteration(env_p, pe, value)

    def _fused_entry(self, loop: Loop):
        """Serial-plan tuple for a fusable doall body, else None (cached)."""
        entry = self._fused_plans.get(loop.uid, False)
        if entry is not False:
            return entry
        entry = None
        if len(loop.body) == 1 and isinstance(loop.body[0], Loop):
            inner = self._serial_plans.get(loop.body[0].uid)
            if inner is not None:
                plan, _, _, _, bound_vars = inner
                # Vector value pass only (the scalar pass would need
                # per-row register churn), no prefetch slots (replay is
                # per-chunk), and the inner bounds must not depend on
                # scalars the body itself assigns.
                if (plan.vec_stmts is not None and not plan.pf_idx
                        and bound_vars.isdisjoint(plan.assigned)):
                    entry = inner
        self._fused_plans[loop.uid] = entry
        return entry

    def _exec_fused(self, loop: Loop, entry, env: dict, pe: int,
                    values: Sequence[int]) -> bool:
        """Run every (outer j, inner i) iteration of this PE's chunk as one
        bulk trace.  Fused chunks need rectangular rows: every row shares
        one inner (lo, hi, step), so the whole box binds in one
        :meth:`_bind_slots` call.  False means nothing was mutated
        and the caller must take the per-iteration path (whose inner
        chunks may still batch, one row at a time)."""
        plan, lo_fn, hi_fn, step_fn, _ = entry
        pe_obj = self.machine.pes[pe]
        n_outer = len(values)
        if n_outer == 0:
            return False
        outer_var = loop.var
        if self._chunk_guards(plan, env, pe_obj, skip=outer_var) is not None:
            return False
        # Row bounds are array-free pure closures, so evaluating them
        # charges nothing.
        row_bounds = None
        for j in values:
            env[outer_var] = j
            bounds = (int(lo_fn(env, pe)), int(hi_fn(env, pe)),
                      int(step_fn(env, pe)))
            if row_bounds is None:
                row_bounds = bounds
            elif bounds != row_bounds:
                return False  # non-rectangular: per-row chunks instead
        lo, hi, step = row_bounds
        rng = range(lo, hi + (1 if step > 0 else -1), step)
        tj = len(rng)
        total_iters = n_outer * tj
        if tj == 0 or total_iters * plan.n_events < MIN_BATCH_EVENTS:
            return False
        vj = np.arange(rng.start, rng.stop, rng.step, dtype=np.int64)
        V = np.tile(vj, n_outer)
        O = np.repeat(np.fromiter(values, dtype=np.int64, count=n_outer), tj)
        box = (int(vj.min()), int(vj.max()), outer_var, min(values),
               max(values))
        g = self._bind_slots(plan, env, box, V, O, pe)
        if g is None:
            return False  # out of bounds: reference raises exactly
        if ((pe_obj.queue.entries or pe_obj.dropped_lines)
                and not self._prefetch_disjoint(plan, pe_obj, g)
                or self._stale(plan, pe_obj, g)):
            return False  # per-iteration path: inner chunks replay exactly
        if not self._vector_safe(plan, g.F):
            return False  # per-row chunks may still vectorise alone
        overhead = float(self.params.loop_overhead)
        extra_rows = np.zeros(total_iters, dtype=np.float64)
        extra_rows[::tj] += overhead
        const_total = overhead * n_outer + plan.const_per_iter * total_iters
        self.batch_chunks += 1
        vecs = {plan.var: V, outer_var: O}
        self._vector_value_pass(plan, env, pe, g.F, vecs)
        env[plan.var] = int(V[-1])
        # env[outer_var] already holds values[-1] from the bounds sweep.
        self._timing_pass(plan, pe_obj, g, total_iters, const_total,
                          extra_rows, self._inflight(pe_obj))
        return True

    # ------------------------------------------------------------------
    # plan compilation
    # ------------------------------------------------------------------
    def _compile_plan(self, loop: Loop, ctx, outer_ctxs, loop_vars,
                      final_clear: bool) -> Optional[_Plan]:
        try:
            return self._compile_plan_inner(loop, ctx, outer_ctxs, loop_vars,
                                            final_clear)
        except _Ineligible:
            return None

    def _compile_plan_inner(self, loop, ctx, outer_ctxs, loop_vars,
                            final_clear) -> _Plan:
        params = self.params
        for bound in (loop.lower, loop.upper, loop.step):
            if any(isinstance(n, ArrayRef) for n in bound.walk()):
                raise _Ineligible  # wrapper would double-charge bound reads
        if not _integral(params.cache_hit, params.local_mem,
                         params.remote_base, params.remote_per_hop,
                         params.uncached_local_read, params.write_local,
                         params.write_remote_base, params.write_remote_per_hop,
                         params.craft_shared_ref_overhead,
                         params.loop_overhead):
            raise _Ineligible  # fractional costs: bulk summation inexact
        slots: List[_Slot] = []
        const_before: List[float] = []  # const cycles preceding each event
        accbox = [float(params.loop_overhead)]  # running const accumulator
        live: Set[tuple] = set()  # register keys live within one iteration
        key_slot: Dict[tuple, int] = {}  # promoted key -> event slot index
        node_slot: Dict[int, int] = {}   # id(ArrayRef) -> address slot index
        reg_ops: list = []  # ("set", key, slot) / ("drop", keys) in order
        vec_meta: list = []  # per-stmt ("arr", slot, rhs, pops) / ("sca", ...)
        assigned: List[str] = []
        for stmt in loop.body:
            if isinstance(stmt, PrefetchLine):
                self._plan_prefetch(stmt, loop.var, slots, const_before,
                                    accbox)
                continue
            if not isinstance(stmt, Assign):
                raise _Ineligible
            for node in stmt.rhs.walk():
                if isinstance(node, BinOp) and node.op in ("and", "or"):
                    raise _Ineligible  # short-circuit: event order is
                    # data-dependent
            # Reads, in evaluation order (pre-order over the rhs; affine
            # subscripts contain no nested ArrayRefs).
            for node in stmt.rhs.walk():
                if isinstance(node, ArrayRef):
                    self._plan_read(node, ctx, loop_vars, loop.var, live,
                                    slots, const_before, accbox, key_slot,
                                    node_slot, reg_ops)
            arith = self._arith_cost(stmt.rhs)
            if not _integral(arith):
                raise _Ineligible
            accbox[0] += arith
            if isinstance(stmt.lhs, VarRef):
                if stmt.lhs.name not in assigned:
                    assigned.append(stmt.lhs.name)
                vec_meta.append(("sca", stmt.lhs.name, stmt.rhs))
                continue
            pops_outer = self._plan_write(
                stmt.lhs, ctx, outer_ctxs, loop.var, live, slots,
                const_before, accbox, reg_ops)
            vec_meta.append(("arr", len(slots) - 1, stmt.rhs, pops_outer))
        if not slots:
            raise _Ineligible  # pure scalar loop: nothing worth batching
        # A scalar assigned inside the body must not feed any subscript or
        # shadow the loop variable: slot addresses bind once per chunk from
        # the pre-chunk environment.
        if assigned:
            addr_vars = set()
            for slot in slots:
                addr_vars |= slot.variables()
            if (loop.var in assigned
                    or not addr_vars.isdisjoint(assigned)):
                raise _Ineligible
        const_per_iter = float(sum(const_before) + accbox[0])
        vec_stmts = self._compile_vec_stmts(vec_meta, node_slot, loop.var,
                                            assigned)
        plan = _Plan(loop.var, ctx.values, final_clear, slots,
                     const_per_iter, const_before, accbox[0], tuple(assigned),
                     vec_stmts, reg_ops)
        plan.seq_fn = self._compile_seq_fn(plan, loop, ctx, outer_ctxs,
                                           loop_vars)
        return plan

    def _plan_prefetch(self, stmt: PrefetchLine, var: str, slots, const_before,
                       accbox) -> None:
        params = self.params
        if not _integral(params.prefetch_issue):
            raise _Ineligible
        if not self.config.spec.policy(self.program.array(stmt.ref.array))[0]:
            # Disabled shared cache: the reference folds the prefetch into a
            # no-op costing bare issue time, in or out of bounds alike.
            accbox[0] += float(params.prefetch_issue)
            return
        if not _integral(params.dtb_setup, params.prefetch_extract):
            raise _Ineligible
        slot = self._slot_for(stmt.ref, "pf", var, False, False, True)
        slot.inval = bool(stmt.invalidate_first)
        slots.append(slot)
        const_before.append(accbox[0])
        accbox[0] = 0.0

    def _slot_for(self, ref: ArrayRef, role: str, var: str, bypass: bool,
                  craft: bool, cacheable: bool) -> _Slot:
        decl = self.program.array(ref.array)
        aref = affine_ref(ref, decl)
        if aref is None:
            raise _Ineligible
        extra = float(self.params.craft_shared_ref_overhead) if craft else 0.0
        return _Slot(role, ref.array, self.machine.addr_map.base(ref.array),
                     decl.is_shared, bypass, cacheable, aref.address,
                     aref.dims, decl.shape, var, self.program.sym_value,
                     extra)

    def _plan_read(self, ref: ArrayRef, ctx, loop_vars, var, live, slots,
                   const_before, accbox, key_slot, node_slot, reg_ops):
        decl = self.program.array(ref.array)
        bypass = decl.is_shared and ref.mode == RefMode.BYPASS
        cacheable, craft, _ = self.config.spec.policy(decl)
        cacheable = cacheable and not bypass
        key = ref.key()
        promoted = (key in ctx.reads
                    and all(s.free_vars() <= loop_vars for s in ref.subscripts))
        if promoted and key in live:
            # Register hit: no machine event in any iteration, but the
            # vectorised value plane still needs this node's address vector
            # — identical key means identical subscripts, so reuse the slot
            # that created the register.
            node_slot[id(ref)] = key_slot[key]
            return
        slots.append(self._slot_for(ref, "cr" if cacheable else "ur", var,
                                    bypass, craft, cacheable))
        node_slot[id(ref)] = len(slots) - 1
        const_before.append(accbox[0])
        accbox[0] = 0.0
        if promoted:
            live.add(key)
            key_slot[key] = len(slots) - 1
            reg_ops.append(("set", key, len(slots) - 1))

    def _plan_write(self, lhs: ArrayRef, ctx, outer_ctxs, var, live, slots,
                    const_before, accbox, reg_ops) -> list:
        """Add the write's slot and return the outer-context register
        evictions it causes, ``[(registers, keys), ...]``; the loop's own
        evictions go to ``reg_ops`` in program order."""
        decl = self.program.array(lhs.array)
        cacheable, craft, _ = self.config.spec.policy(decl)
        slots.append(self._slot_for(lhs, "w", var, False, craft, cacheable))
        const_before.append(accbox[0])
        accbox[0] = 0.0
        write_aref = affine_ref(lhs, decl)
        # Register evictions, exactly as the reference assign closure does:
        # pop may-alias keys in every active context.
        pops_outer = []
        for c in outer_ctxs:
            keys = c.drop_keys_for_write(lhs, write_aref)
            if keys:
                pops_outer.append((c.values, keys))
        own_drops = ctx.drop_keys_for_write(lhs, write_aref)
        live.difference_update(own_drops)
        if own_drops:
            reg_ops.append(("drop", tuple(own_drops)))
        return pops_outer

    # ------------------------------------------------------------------
    # compiled scalar value pass
    # ------------------------------------------------------------------
    # Every plan's value pass, used whenever the vector pass is refused
    # (true loop-carried recurrences, e.g. VPENTA's forward elimination).
    # ONE generated Python function per plan contains the whole
    # ``for v in values:`` loop with everything statically resolved:
    # register promotion becomes plain locals (the per-iteration
    # ``registers.clear()`` plus compile-time ``drop_keys_for_write`` sets
    # make the dict dynamics fully static), flat indices are inlined
    # arithmetic with no bounds checks (``_bind_slots`` already validated
    # the whole chunk), and env scalars live in locals written back once.
    # Program names never become Python identifiers: each scalar and loop
    # variable maps to a generated ``_s<k>`` local, so any name the IR
    # admits (``__pf_i``, ``_x``, a Python keyword) compiles alike.
    # Bit-exactness: identical float operations in identical order —
    # ``float()`` materialisation on loads, the reference's int/int
    # division rule, ``math.fmod``/``copysign`` intrinsics — only the
    # dispatch around them changes.
    _SEQ_INTR = {
        "sqrt": "_sqrt({0})", "abs": "abs({0})", "exp": "_exp({0})",
        "log": "_log({0})", "sin": "_sin({0})", "cos": "_cos({0})",
        "int": "int({0})", "real": "float({0})",
        "min": "min({0}, {1})", "max": "max({0}, {1})",
        "mod": "_fmod({0}, {1})", "sign": "_copysign(abs({0}), {1})",
    }
    _SEQ_INTR_ARITY = {"min": 2, "max": 2, "mod": 2, "sign": 2}
    _SEQ_BIN = frozenset(("+", "-", "*", "**", "<", "<=", ">", ">=",
                          "==", "!="))

    def _compile_seq_fn(self, plan, loop, ctx, outer_ctxs, loop_vars):
        """Generate ``plan``'s scalar value pass, ``fn(values, env, pe)``.
        A construct it cannot express raises :class:`_Ineligible`, so the
        loop is not planned and runs on the reference path."""
        var = loop.var
        int_names = set(plan.env_vars) | {var}  # guard-checked ints
        program = self.program
        memory = self.machine.memory
        ns: dict = {"_div": _seq_div, "_fmod": math.fmod,
                    "_sqrt": math.sqrt, "_exp": math.exp, "_log": math.log,
                    "_sin": math.sin, "_cos": math.cos,
                    "_copysign": math.copysign}
        arr_syms: Dict[Tuple[str, str], str] = {}
        head: List[str] = []   # once-per-call setup (env loads, array rows)
        body: List[str] = []   # per-iteration statements
        loaded: Set[str] = set()
        assigned_now: Set[str] = set()
        reg: Dict[tuple, str] = {}  # promoted register key -> local temp
        counters = {"t": 0, "d": 0}
        outer_pop_lines: List[str] = []
        outer_seen: Set[tuple] = set()
        local: Dict[str, str] = {}  # program scalar / loop variable -> local

        def local_of(name: str) -> str:
            s = local.get(name)
            if s is None:
                s = local[name] = f"_s{len(local)}"
            return s

        def sym(kind: str, aname: str) -> str:
            k = (kind, aname)
            s = arr_syms.get(k)
            if s is None:
                s = f"_{kind}{len(arr_syms)}"
                arr_syms[k] = s
                if kind == "v":
                    ns[s] = memory.values[aname]
                elif kind == "w":
                    ns[s] = memory.versions[aname]
                else:  # this PE's private row, hoisted per call
                    ns["_P" + s] = memory.private_values[aname]
                    head.append(f"{s} = _P{s}[_pe]")
            return s

        def temp() -> str:
            counters["t"] += 1
            return f"_t{counters['t']}"

        def scalar(name: str) -> str:
            s = local_of(name)
            if name != var and name not in assigned_now \
                    and name not in loaded:
                loaded.add(name)
                head.append(f"{s} = _env[{name!r}]")
            return s

        def provably_int(e) -> bool:
            if isinstance(e, IntConst):
                return True
            if isinstance(e, VarRef):
                return e.name in int_names
            if isinstance(e, SymConst):
                return type(program.sym_value(e.name)) is int
            if isinstance(e, UnaryOp) and e.op == "-":
                return provably_int(e.operand)
            if isinstance(e, BinOp) and e.op in ("+", "-", "*", "/"):
                return provably_int(e.left) and provably_int(e.right)
            return False

        def flat_src(ref: ArrayRef, pre: List[str]) -> str:
            decl = program.array(ref.array)
            terms = []
            for s, stride in zip(ref.subscripts, decl.strides()):
                src = emit(s, pre)
                if not provably_int(s):
                    src = f"int({src})"  # the reference truncates here too
                term = f"({src} - 1)"
                if stride != 1:
                    term = f"{term} * {stride}"
                terms.append(term)
            return " + ".join(terms) or "0"

        def read_src(ref: ArrayRef, pre: List[str]) -> str:
            decl = program.array(ref.array)
            key = ref.key()
            promoted = (key in ctx.reads
                        and all(s.free_vars() <= loop_vars
                                for s in ref.subscripts))
            if promoted and key in reg:
                return reg[key]
            fs = flat_src(ref, pre)
            kind = "v" if decl.is_shared else "p"
            load = f"float({sym(kind, ref.array)}[{fs}])"
            if promoted:
                r = temp()
                pre.append(f"{r} = {load}")
                reg[key] = r
                return r
            return load

        def emit(e: Expr, pre: List[str]) -> str:
            if isinstance(e, IntConst):
                return f"({e.value!r})"
            if isinstance(e, FloatConst):
                return f"({e.value!r})"  # repr round-trips floats exactly
            if isinstance(e, SymConst):
                v = program.sym_value(e.name)
                if type(v) in (int, float):
                    return f"({v!r})"
                raise _Ineligible
            if isinstance(e, VarRef):
                return scalar(e.name)
            if isinstance(e, ArrayRef):
                return read_src(e, pre)
            if isinstance(e, UnaryOp):
                inner = emit(e.operand, pre)
                if e.op == "-":
                    return f"(-{inner})"
                if e.op == "not":
                    return f"(not {inner})"
                return inner
            if isinstance(e, IntrinsicCall):
                tmpl = self._SEQ_INTR.get(e.name)
                if tmpl is None \
                        or len(e.args) != self._SEQ_INTR_ARITY.get(e.name, 1):
                    raise _Ineligible
                return tmpl.format(*(emit(a, pre) for a in e.args))
            if isinstance(e, BinOp):
                left = emit(e.left, pre)
                right = emit(e.right, pre)
                if e.op == "/":
                    return f"_div({left}, {right})"
                if e.op == "mod":
                    return f"_fmod({left}, {right})"
                if e.op in ("min", "max"):
                    return f"{e.op}({left}, {right})"
                if e.op in self._SEQ_BIN:
                    return f"({left} {e.op} {right})"
                raise _Ineligible
            raise _Ineligible

        for stmt in loop.body:
            if isinstance(stmt, PrefetchLine):
                continue  # timing-only: no value-plane effect
            pre: List[str] = []
            rhs = emit(stmt.rhs, pre)
            if isinstance(stmt.lhs, VarRef):
                name = stmt.lhs.name
                body.extend(pre)
                body.append(f"{local_of(name)} = {rhs}")
                assigned_now.add(name)
                continue
            lhs = stmt.lhs
            decl = program.array(lhs.array)
            # Value before address, as the reference assign evaluates them.
            body.extend(pre)
            tv = temp()
            body.append(f"{tv} = {rhs}")
            fpre: List[str] = []
            fs = flat_src(lhs, fpre)
            body.extend(fpre)
            tf = temp()
            body.append(f"{tf} = {fs}")
            if decl.is_shared:
                body.append(f"{sym('v', lhs.array)}[{tf}] = {tv}")
                body.append(f"{sym('w', lhs.array)}[{tf}] += 1")
            else:
                body.append(f"{sym('p', lhs.array)}[{tf}] = {tv}")
            write_aref = affine_ref(lhs, decl)
            for k in ctx.drop_keys_for_write(lhs, write_aref):
                reg.pop(k, None)  # symbolic: next read re-loads
            for c in outer_ctxs:
                keys = c.drop_keys_for_write(lhs, write_aref)
                if keys:
                    # The same keys are evicted every iteration; popping
                    # once after the loop is exact (nothing reads outer
                    # registers mid-chunk).
                    dkey = (id(c.values), tuple(keys))
                    if dkey in outer_seen:
                        continue
                    outer_seen.add(dkey)
                    dn = f"_d{counters['d']}"
                    counters["d"] += 1
                    ns[dn] = c.values
                    for ki, key in enumerate(keys):
                        kn = f"{dn}k{ki}"
                        ns[kn] = key
                        outer_pop_lines.append(f"{dn}.pop({kn}, None)")
        src = ["def _chunk(_values, _env, _pe):"]
        src.extend("    " + h for h in head)
        src.append(f"    for {local_of(var)} in _values:")
        src.extend("        " + b for b in body or ["pass"])
        src.append(f"    _env[{var!r}] = {local_of(var)}")
        src.extend(f"    _env[{name!r}] = {local_of(name)}"
                   for name in plan.assigned)
        src.extend("    " + p for p in outer_pop_lines)
        # The register residue (see _register_residue), from the locals
        # holding the last iteration's surviving promotions.
        ns["_R"] = plan.registers
        src.append("    _R.clear()")
        if not plan.final_clear:
            for k, (key, r) in enumerate(reg.items()):
                ns[f"_r{k}"] = key
                src.append(f"    _R[_r{k}] = {r}")
        exec(compile("\n".join(src), "<batched-seq-fn>", "exec"), ns)
        return ns["_chunk"]

    def _register_residue(self, plan: _Plan, pe: int, last: list) -> None:
        """Leave ``plan.registers`` exactly as the reference per-iteration
        path would have: cleared, then — unless the plan ends with a clear —
        the last iteration's surviving promotions rebuilt from ``last``,
        each slot's flat index in that iteration.  A surviving
        key was never aliased by a chunk write after its load
        (``drop_keys_for_write`` is conservative), so re-gathering from
        final memory reproduces the value the reference cached at read
        time."""
        registers = plan.registers
        registers.clear()
        if plan.final_clear:
            return
        memory = self.machine.memory
        for rop in plan.reg_ops:
            if rop[0] == "set":
                _, key, k = rop
                slot = plan.slots[k]
                if slot.shared:
                    registers[key] = float(memory.values[slot.array][last[k]])
                else:
                    registers[key] = float(
                        memory.private_values[slot.array][pe, last[k]])
            else:
                for key in rop[1]:
                    registers.pop(key, None)

    # ------------------------------------------------------------------
    # vectorised value-plane compilation
    # ------------------------------------------------------------------
    # A second compilation of the loop body, into whole-chunk NumPy
    # statements: gather every rhs operand as a vector, evaluate the rhs
    # elementwise, scatter to the lhs.  Only operations whose NumPy
    # float64 result is bit-identical to the reference's per-element
    # Python arithmetic are allowed (+ - * /, fmod, sqrt, abs, copysign,
    # and where()-based min/max); anything with a rounding or dynamic-type
    # hazard (exp/log/sin/cos SIMD paths, int**int, comparisons, scalars
    # of unknown runtime type in a division) rejects the vector pass and
    # the chunk runs the generated scalar pass instead.
    def _compile_vec_stmts(self, vec_meta, node_slot, loop_var, assigned):
        try:
            defined: Set[str] = set()
            out = []
            for op in vec_meta:
                if op[0] == "arr":
                    _, slot_idx, rhs, pops_outer = op
                    fn, _, _ = self._vec_value(rhs, node_slot, loop_var,
                                               set(assigned), defined)
                    out.append(("arr", slot_idx, fn, tuple(pops_outer)))
                else:
                    _, name, rhs = op
                    fn, numclass, _ = self._vec_value(rhs, node_slot,
                                                      loop_var,
                                                      set(assigned), defined)
                    if numclass != "f":
                        raise _VecIneligible  # scalar must stay float-typed
                    defined.add(name)
                    out.append(("sca", name, fn))
            return out
        except _VecIneligible:
            return None

    def _vec_value(self, expr: Expr, node_slot, loop_var, assigned_set,
                   defined):
        """Compile ``expr`` to ``fn(env, pe, flats, vecs) -> vector|scalar``.

        Returns ``(fn, numclass, is_vector)`` with numclass 'i' (integer),
        'f' (float) or 'u' (unknown scalar type at runtime)."""
        if isinstance(expr, IntConst):
            iv = expr.value
            return (lambda env, pe, flats, vecs: iv), "i", False
        if isinstance(expr, FloatConst):
            fv = expr.value
            return (lambda env, pe, flats, vecs: fv), "f", False
        if isinstance(expr, SymConst):
            bound = self.program.sym_value(expr.name)
            cls = "i" if isinstance(bound, int) else "f"
            return (lambda env, pe, flats, vecs: bound), cls, False
        if isinstance(expr, VarRef):
            name = expr.name
            if name in assigned_set and name not in defined and \
                    name != loop_var:
                raise _VecIneligible  # loop-carried scalar dependence

            def var_read(env, pe, flats, vecs):
                v = vecs.get(name)
                return v if v is not None else env[name]

            if name == loop_var:
                return var_read, "i", True
            if name in defined:
                return var_read, "f", True
            return var_read, "u", False
        if isinstance(expr, ArrayRef):
            k = node_slot[id(expr)]
            decl = self.program.array(expr.array)
            memory = self.machine.memory
            if decl.is_shared:
                vals = memory.values[expr.array]

                def gather(env, pe, flats, vecs):
                    return vals[flats[k]]
            else:
                pvals = memory.private_values[expr.array]

                def gather(env, pe, flats, vecs):
                    return pvals[pe, flats[k]]

            return gather, "f", True
        if isinstance(expr, UnaryOp):
            fn, cls, vec = self._vec_value(expr.operand, node_slot, loop_var,
                                           assigned_set, defined)
            if expr.op == "-":
                return (lambda env, pe, flats, vecs:
                        -fn(env, pe, flats, vecs)), cls, vec
            if expr.op == "not":
                raise _VecIneligible
            return fn, cls, vec
        if isinstance(expr, IntrinsicCall):
            fns = []
            clss = []
            vecs_ = []
            for a in expr.args:
                f, c, v = self._vec_value(a, node_slot, loop_var,
                                          assigned_set, defined)
                fns.append(f)
                clss.append(c)
                vecs_.append(v)
            anyvec = any(vecs_)
            name = expr.name
            if name == "sqrt":  # np.sqrt is correctly rounded, like math's
                f0 = fns[0]
                return (lambda env, pe, flats, vecs:
                        np.sqrt(f0(env, pe, flats, vecs))), "f", anyvec
            if name == "abs":
                f0 = fns[0]
                return (lambda env, pe, flats, vecs:
                        np.abs(f0(env, pe, flats, vecs))), clss[0], anyvec
            if name == "real":
                f0 = fns[0]
                return (lambda env, pe, flats, vecs:
                        _to_float(f0(env, pe, flats, vecs))), "f", anyvec
            if name == "int":
                f0 = fns[0]
                return (lambda env, pe, flats, vecs:
                        np.trunc(f0(env, pe, flats, vecs))), "i", anyvec
            if name == "sign":
                f0, f1 = fns
                return (lambda env, pe, flats, vecs:
                        np.copysign(np.abs(f0(env, pe, flats, vecs)),
                                    f1(env, pe, flats, vecs))), "f", anyvec
            if name == "mod":
                f0, f1 = fns
                return (lambda env, pe, flats, vecs:
                        np.fmod(f0(env, pe, flats, vecs),
                                f1(env, pe, flats, vecs))), "f", anyvec
            if name in ("min", "max"):
                return self._vec_minmax(name, fns[0], fns[1], clss, anyvec)
            raise _VecIneligible  # exp/log/sin/cos: SIMD ulp risk
        if isinstance(expr, BinOp):
            lf, lc, lv = self._vec_value(expr.left, node_slot, loop_var,
                                         assigned_set, defined)
            rf, rc, rv = self._vec_value(expr.right, node_slot, loop_var,
                                         assigned_set, defined)
            anyvec = lv or rv
            op = expr.op
            if op in ("+", "-", "*"):
                if "f" in (lc, rc):
                    cls = "f"
                elif lc == rc == "i":
                    cls = "i"
                else:
                    cls = "u"
                if op == "+":
                    return (lambda env, pe, flats, vecs:
                            lf(env, pe, flats, vecs)
                            + rf(env, pe, flats, vecs)), cls, anyvec
                if op == "-":
                    return (lambda env, pe, flats, vecs:
                            lf(env, pe, flats, vecs)
                            - rf(env, pe, flats, vecs)), cls, anyvec
                return (lambda env, pe, flats, vecs:
                        lf(env, pe, flats, vecs)
                        * rf(env, pe, flats, vecs)), cls, anyvec
            if op == "/":
                if "f" in (lc, rc):
                    return (lambda env, pe, flats, vecs:
                            lf(env, pe, flats, vecs)
                            / rf(env, pe, flats, vecs)), "f", anyvec
                if lc == rc == "i":
                    if not anyvec:
                        return (lambda env, pe, flats, vecs:
                                int(lf(env, pe, flats, vecs)
                                    / rf(env, pe, flats, vecs))), "i", False
                    # Fortran integer division: float-divide then truncate,
                    # exactly what int(a / b) does per element.
                    return (lambda env, pe, flats, vecs:
                            np.trunc(lf(env, pe, flats, vecs)
                                     / rf(env, pe, flats, vecs))), "i", True
                raise _VecIneligible  # unknown-typed operand: semantics
                # depend on the runtime type
            if op == "mod":
                return (lambda env, pe, flats, vecs:
                        np.fmod(lf(env, pe, flats, vecs),
                                rf(env, pe, flats, vecs))), "f", anyvec
            if op in ("min", "max"):
                return self._vec_minmax(op, lf, rf, (lc, rc), anyvec)
            raise _VecIneligible  # ** (int overflow semantics), comparisons
        raise _VecIneligible

    @staticmethod
    def _vec_minmax(op, lf, rf, clss, anyvec):
        # Python min(a, b) returns b only when b < a; np.where replicates
        # that tie/NaN behaviour exactly (np.minimum would not).
        cls = "f" if clss[0] == clss[1] == "f" else "u"
        if op == "min":
            def vmin(env, pe, flats, vecs):
                a = lf(env, pe, flats, vecs)
                b = rf(env, pe, flats, vecs)
                return np.where(b < a, b, a)

            return vmin, cls, anyvec

        def vmax(env, pe, flats, vecs):
            a = lf(env, pe, flats, vecs)
            b = rf(env, pe, flats, vecs)
            return np.where(b > a, b, a)

        return vmax, cls, anyvec

    # ------------------------------------------------------------------
    # chunk execution
    # ------------------------------------------------------------------
    def _fall(self, reason: str) -> bool:
        self.batch_fallbacks += 1
        self._note_skip(reason)
        return False

    def _note_skip(self, reason: str) -> None:
        """Record a reason that routes work to the reference path without
        counting it as a chunk-level fallback (e.g. chunks below the batch
        threshold, where the per-iteration path is simply cheaper)."""
        fr = self.fallback_reasons
        fr[reason] = fr.get(reason, 0) + 1

    def _chunk_guards(self, plan: _Plan, env: dict, pe_obj,
                      skip: Optional[str] = None) -> Optional[str]:
        """None when every chunk-level guard passes, else the reason code."""
        # Run-wide reasons never reach here: such a run has no plans
        # (see :meth:`_run_fallback_reason`).
        if self.machine.protocol is not None and (
                not plan.protocol_bulk or pe_obj.queue.entries
                or pe_obj.dropped_lines or self._inflight(pe_obj)):
            # Outside the protocol timing pass: prefetch or uncached
            # slots, leftover prefetch or vector state.  Those chunks
            # take the exact reference closures.
            return "protocol"
        for name in plan.env_vars:
            if name != skip and type(env.get(name)) is not int:
                return "env_nonint"
        return None

    def _bind_slots(self, plan: _Plan, env: dict, box: tuple, values,
                    O: Optional[np.ndarray], pe: int) -> Optional[_Chunk]:
        """The chunk bound over the loop ``box`` (:func:`_in_box`)
        for the inner variable's ``values`` (``O``: the outer variable's
        vector, fused chunks only), with each prefetch slot's
        out-of-bounds iterations addressing flat 0.  A chunk of fewer
        than ``MIN_VECTOR_ITERS`` iterations binds as lists, each slot a
        base plus ``var_coeff`` per iteration; any other as one ``(T,
        S)`` matrix op.  None when a non-prefetch slot leaves its array
        bounds."""
        slots = plan.slots
        if not _in_box(plan.box, env, box):
            return None
        pf_masked = plan.pf_idx if not _in_box(plan.pf_box, env, box) \
            else ()
        outer = box[2]
        T = len(values)
        oob = []
        if O is None and T < MIN_VECTOR_ITERS:
            bases = plan.addr0
            for name, col in zip(plan.addr_vars, plan.env_cols):
                e = env[name]
                bases = [b + c * e for b, c in zip(bases, col)]
            rows = list(zip(bases, plan.var_coefs))
            addrs = [b + c * v for v in values for b, c in rows]
            S = plan.n_events
            for i in pf_masked:
                m = slots[i].pf_mask(env, box, np.asarray(values))
                if m is not None:
                    for t in np.flatnonzero(~m).tolist():
                        addrs[t * S + i] = slots[i].base
                        oob.append(t * S + i)
            return _Chunk(self, plan, pe, T, addrs=addrs, oob=oob)
        if isinstance(values, np.ndarray):
            V = values
        elif isinstance(values, range):
            V = np.arange(values.start, values.stop, values.step,
                          dtype=np.int64)
        else:
            V = np.asarray(values, dtype=np.int64)
        const = plan.const0 + plan.base_row
        if plan.addr_vars:
            const = const + np.dot(
                [0 if n == outer else env[n] for n in plan.addr_vars],
                plan.env_coef)
        A = np.multiply.outer(V, plan.var_coef)
        A += const
        if outer in plan.addr_vars:
            A += np.multiply.outer(
                O, plan.env_coef[plan.addr_vars.index(outer)])
        S = plan.n_events
        for i in pf_masked:
            m = slots[i].pf_mask(env, box, V)
            if m is not None:
                rows = np.flatnonzero(~m)
                A[rows, i] = slots[i].base
                oob.extend((rows * S + i).tolist())
        return _Chunk(self, plan, pe, T, A=A, V=V, oob=oob)

    def _inflight(self, pe_obj) -> list:
        clock = pe_obj.clock
        return [t for t in pe_obj.vectors.transfers if t.completion > clock]

    def _exec_chunk(self, plan: _Plan, env: dict, pe: int, values) -> bool:
        """Service one PE's chunk in bulk; False means the caller must run
        the reference per-iteration path (nothing was mutated)."""
        pe_obj = self.machine.pes[pe]
        T = len(values)
        if T == 0:
            return False
        if T * plan.n_events < MIN_BATCH_EVENTS:
            self._note_skip("tiny_chunk")
            return False
        reason = self._chunk_guards(plan, env, pe_obj)
        if reason is not None:
            return self._fall(reason)
        if isinstance(values, range):
            first, last = values[0], values[-1]
            box = (min(first, last), max(first, last), None, 0, 0)
        else:
            box = (min(values), max(values), None, 0, 0)
        g = self._bind_slots(plan, env, box, values, None, pe)
        if g is None:
            return self._fall("oob_bind")
        # Listed chunks, prefetch slots, stale lines the chunk touches and
        # leftover prefetch state aliasing a cached read route the
        # chunk's timing through the exact scan.
        scan = self.machine.protocol is None and (
            g.listed and self._replay_costs_ok or bool(plan.pf_idx)
            or self._stale(plan, pe_obj, g)
            or (bool(pe_obj.queue.entries or pe_obj.dropped_lines)
                and not self._prefetch_disjoint(plan, pe_obj, g)))
        if scan:
            if not self._replay_costs_ok:
                return self._fall("replay_costs")
            if pe_obj.queue.squeeze is not None:
                return self._fall("queue_squeeze")
            outcome, record = self._replay_scan(plan, pe_obj, g, T)
            if outcome.hazard:
                return self._fall(outcome.hazard)
        self.batch_chunks += 1

        # -- value pass ----------------------------------------------------
        if (not g.listed and plan.vec_stmts is not None
                and self._vector_safe(plan, g.F)):
            self._vector_value_pass(plan, env, pe, g.F, {plan.var: g.V})
            env[plan.var] = int(g.V[-1])
        else:
            plan.seq_fn(values, env, pe)

        if not scan:
            self._timing_pass(plan, pe_obj, g, T, plan.const_per_iter * T,
                              None, self._inflight(pe_obj))
            return True
        self._commit(plan, pe_obj, g, T, outcome.counters, outcome.busy,
                     outcome.clock, outcome.stalls, outcome.tags, record,
                     outcome)
        return True

    def _stale(self, plan: _Plan, pe_obj, g: _Chunk) -> bool:
        """True when a shared line the chunk's cached reads, cacheable
        writes or prefetches touch is resident with a stale word (only
        the scan replays those exactly); O(lines touched)."""
        return (plan.touches_shared_cache and self._stale_possible
                and touches_stale(pe_obj.cache,
                                  self.machine.memory.versions_flat,
                                  g.distinct_lines(plan.c_stale)))

    def _prefetch_disjoint(self, plan: _Plan, pe_obj, g: _Chunk) -> bool:
        """True when leftover prefetch state (queued entries, dropped-line
        marks) cannot intersect any cacheable read of the chunk — then the
        plain fast timing path is exact despite a non-empty queue."""
        pend = pe_obj.queue.lines()
        if pe_obj.dropped_lines:
            dl = np.fromiter(pe_obj.dropped_lines, dtype=np.int64,
                             count=len(pe_obj.dropped_lines))
            pend = np.concatenate([pend, dl]) if pend.size else dl
        if not pend.size or not plan.c_cr.size:
            return True
        return not _pending_hit(np.sort(pend), g.L[:, plan.c_cr])

    def _replay_scan(self, plan: _Plan, pe_obj, g: _Chunk, Tt: int):
        """Run the exact :func:`replay_chunk` scan of the chunk against
        shadow PE state.  Returns ``(outcome, record)``, ``record`` the
        per-event outcome codes for event synthesis (``None`` unless a
        tracer wants tuples); nothing live is mutated, so a hazard
        outcome costs only the scan."""
        tr = self.machine.tracer
        record = None
        if tr is not None and not tr.counts_only(plan.event_kinds):
            record = [REC_NONE] * (Tt * plan.n_events)
        cache = pe_obj.cache
        outcome = replay_chunk(
            self._scan_rows(plan, g.pe), Tt, g.lines, g.homes, g.pe,
            cache.tags, cache.n_lines, pe_obj.clock, plan.tail_const,
            pe_obj.queue.entries, pe_obj.queue.capacity,
            pe_obj.dropped_lines, pe_obj.vectors.transfers,
            *self._scan_costs,
            pe_obj.last_prefetch_pe, g.addrs,
            (cache.vers, self.machine.memory.versions_flat, cache.line_words)
            if self._stale_possible else None, record,
            pe_obj.stats.busy_cycles)
        return outcome, record

    def _scan_rows(self, plan: _Plan, pe: int) -> list:
        """PE ``pe``'s :func:`replay_chunk` rows of ``plan``, one per slot
        (memoised): event kind, fixed cost before it, cost table by home
        PE (a miss, a fill, a write or an uncached read; a private slot's
        table holds this PE's cost everywhere), a shared read's bypass
        table, the invalidate-first flag and the array."""
        rows = plan.scan_rows.get(pe)
        if rows is not None:
            return rows
        tables = self._scan_tables

        def table(kind: str, shared: bool, extra: float) -> list:
            # One list per (pe, kind, extra, shared), shared by every row.
            key = (pe, kind, extra, shared)
            t = tables.get(key)
            if t is None:
                t = latency_table(self.machine, pe, kind, extra).tolist()
                if not shared:
                    t = [t[pe]] * len(t)
                tables[key] = t
            return t

        rows = plan.scan_rows[pe] = []
        for s, pre in zip(plan.slots, plan.const_before.tolist()):
            x = plan.extra if s.shared else 0.0
            if s.role == "cr":
                row = (RE_READ, pre, table("r", s.shared, x),
                       table("u", True, x) if s.shared else None)
            elif s.role == "pf":
                row = (RE_PF, pre, table("r", True, 0.0), None)
            elif s.role == "w":
                row = (RE_WRITE if s.cacheable else RE_COST, pre,
                       table("w", s.shared, x), None)
            else:
                row = (RE_COST, pre, table("u", s.shared, x), None)
            rows.append(row + (s.inval, s.array))
        return rows

    def _commit(self, plan: _Plan, pe_obj, g: _Chunk, Tt: int,
                counters: dict, busy: float, clock: float, stalls=(),
                tags=None, record=None, outcome=None) -> None:
        """Count one priced chunk's static events, apply it through
        :func:`~repro.machine.batchops.commit_run` and feed the tracer.

        ``counters`` are the pricer's ``PEStats`` deltas (hits, misses,
        fills; the scan adds its prefetch counts), ``busy``, ``clock``,
        ``stalls`` and ``tags`` as ``commit_run`` takes them and
        ``record`` the per-event outcome codes (``None`` when the tracer
        is absent or counts-only).  ``outcome`` is the scan's
        :class:`~repro.machine.batchops.ReplayOutcome`, if it ran."""
        n_reads = len(plan.cached_idx) + len(plan.uncached_idx)
        n_writes = len(plan.write_idx)
        byp = Tt * plan.n_bypass
        ulr = urr = rw = 0
        c = plan.c_urnb
        if c.size:
            ulr = g.n_local(c)
            urr = Tt * c.size - ulr
        c = plan.c_wsh
        if c.size and self.machine.protocol is None:
            rw = Tt * c.size - g.n_local(c)
        drop_byp = counters.get("pf_drop_bypass", 0)
        counters.update(reads=Tt * n_reads, writes=Tt * n_writes,
                        bypass_reads=byp + drop_byp,
                        uncached_local_reads=ulr, uncached_remote_reads=urr,
                        remote_writes=rw)
        refill = () if outcome is not None else (
            g.distinct_lines(plan.c_fill) if plan.c_fill.size else (),
            [(plan.slots[i].array, g.distinct_lines([i]))
             for i in plan.fill_private])
        commit_run(self.machine, g.pe, counters, busy, clock, stalls, tags,
                   *refill, scan=outcome)
        self.batch_refs += Tt * (n_reads + n_writes)

        tr = self.machine.tracer
        if record is not None:
            self._synth_events(plan, g, Tt, record, tr)
        elif tr is not None:
            # Counts-only: every kind this chunk can emit is sampled out,
            # so tally the exact per-kind counts without tuples.
            c = counters
            tr.add_counts("read_hit", c["cache_hits"])
            tr.add_counts("read_miss", c["cache_misses"])
            tr.add_counts("bypass_fetch", byp + ulr + urr + drop_byp)
            tr.add_counts("write", Tt * n_writes)
            if outcome is not None:
                tr.add_counts("pf_complete", c["prefetch_extracted"])
                tr.add_counts("pf_issue", outcome.q_issued)
                tr.add_counts("pf_coalesce",
                              c["prefetch_issued"] - outcome.q_issued)
                tr.add_counts("pf_drop", c["pf_dropped"])
                tr.add_counts("invalidate", c["invalidations"])

    def _synth_events(self, plan: _Plan, g: _Chunk, Tt: int, record,
                      tr) -> None:
        """Emit a committed chunk's machine events, row-major (iteration,
        slot) — exactly the order the reference interpreter would have
        emitted them.  Static read/write events come from the slot roles;
        read and prefetch outcomes come from the pricer's record codes (an
        invalidate kill precedes its prefetch event, as in
        ``Machine.prefetch_line``)."""
        emit = tr.emit
        pe = g.pe
        n = plan.n_events
        cols = []
        for i, slot in enumerate(plan.slots):
            role = slot.role
            if role == "pf":
                # Out-of-bounds look-aheads keep REC_NONE, so their bogus
                # line is never read.
                cols.append(("pf", slot.array, g.L[:, i].tolist(),
                             record[i::n], None))
                continue
            flat_l = g.F[:, i].tolist()
            eq_l = g.local()[:, i].tolist() if slot.shared else None
            if role == "cr":
                cols.append(("cr", slot.array, flat_l, record[i::n], eq_l))
            elif role == "ur":
                cols.append(("urb" if slot.bypass else "ur", slot.array,
                             flat_l, None, eq_l))
            else:
                cols.append(("ws" if slot.shared else "wp", slot.array,
                             flat_l, None, eq_l))
        for t in range(Tt):
            for code, array, data_l, rec_l, aux in cols:
                if code == "cr":
                    rc = rec_l[t]
                    flat = data_l[t]
                    if rc == REC_HIT:
                        emit(("read_hit", pe, array, flat, 0))
                    elif rc == REC_MISS:
                        emit(("read_miss", pe, array, flat,
                              1 if aux is None else int(aux[t])))
                    elif rc == REC_EXTRACT:
                        emit(("pf_complete", pe, array, flat))
                    else:  # REC_DROP_BYPASS
                        emit(("bypass_fetch", pe, array, flat, "pf_drop"))
                elif code == "pf":
                    rc = rec_l[t]
                    if rc != REC_NONE:
                        if rc & REC_KILL_FLAG:
                            emit(("invalidate", pe, array, 1, "prefetch",
                                  -1, -1))
                            rc &= ~REC_KILL_FLAG
                        dtb = 1 if rc & REC_DTB_FLAG else 0
                        rc &= ~REC_DTB_FLAG
                        line = data_l[t]
                        if rc == REC_PF_ISSUE:
                            emit(("pf_issue", pe, array, line, dtb))
                        elif rc == REC_PF_COALESCE:
                            emit(("pf_coalesce", pe, array, line, dtb))
                        else:  # REC_PF_DROP
                            emit(("pf_drop", pe, array, line, dtb))
                elif code == "urb":
                    emit(("bypass_fetch", pe, array, data_l[t], "bypass"))
                elif code == "ur":
                    emit(("bypass_fetch", pe, array, data_l[t],
                          "uncached_local" if aux[t] else "uncached_remote"))
                elif code == "ws":
                    emit(("write", pe, array, data_l[t], 1,
                          0 if aux[t] else 1))
                else:  # private write
                    emit(("write", pe, array, data_l[t], 0, 0))

    def _vector_safe(self, plan: _Plan, F: np.ndarray) -> bool:
        """True when statement-at-a-time gather/scatter reproduces the
        reference's per-iteration execution: every same-array (write, other)
        slot pair is elementwise-identical or fully disjoint, and each write
        slot's addresses are distinct across iterations."""
        for w, j in plan.alias_pairs:
            wf = F[:, w]
            rf = F[:, j]
            if np.array_equal(wf, rf):
                continue
            lo = min(int(wf.min()), int(rf.min()))
            mask = np.zeros(max(int(wf.max()), int(rf.max())) - lo + 1,
                            dtype=bool)
            mask[wf - lo] = True
            if mask[rf - lo].any():
                return False
        for w in plan.write_idx:
            wf = F[:, w]
            if wf.size > 1 and int(np.bincount(wf - wf.min()).max()) > 1:
                return False
        return True

    def _vector_value_pass(self, plan: _Plan, env: dict, pe: int,
                           F: np.ndarray, vecs: dict) -> None:
        """Statement-at-a-time vectorised value pass, plus an epilogue that
        reconstructs the environment/register state the reference
        per-iteration path would have left behind."""
        memory = self.machine.memory
        flats = F.T  # one row per slot, as the compiled gathers index it
        for op in plan.vec_stmts:
            if op[0] == "arr":
                _, k, fn, pops = op
                value = fn(env, pe, flats, vecs)
                slot = plan.slots[k]
                wf = flats[k]
                if slot.shared:
                    memory.values[slot.array][wf] = value
                    memory.versions[slot.array][wf] += 1
                else:
                    memory.private_values[slot.array][pe, wf] = value
                for registers, keys in pops:  # outer-ctx evictions: the
                    for key in keys:          # same keys every iteration,
                        registers.pop(key, None)  # so dropping once is exact
            else:
                _, name, fn = op
                vecs[name] = fn(env, pe, flats, vecs)
        for name in plan.assigned:
            v = vecs[name]
            env[name] = (float(v[-1])
                         if isinstance(v, np.ndarray) and v.ndim else float(v))
        self._register_residue(plan, pe, F[-1].tolist())

    def _timing_pass(self, plan: _Plan, pe_obj, g: _Chunk, Tt: int,
                     const_total: float, row_extra, transfers: list) -> None:
        """Price the chunk with the NumPy classify pass and commit it.

        ``const_total`` is every constant advance in the chunk (loop
        overheads + arithmetic); ``row_extra`` optionally adds per-iteration
        constants at iteration granularity (fused chunks); ``transfers`` are
        the PE's vector transfers still in flight at chunk start."""
        if self.machine.protocol is not None:
            self._protocol_timing_pass(plan, pe_obj, g, Tt, row_extra)
            return
        params = self.params
        extra = plan.extra
        # Dense (Tt, n_slots) per-event cost matrix: every slot of a
        # non-prefetch plan is cr/ur/w, so all columns get filled and one
        # matrix sum replaces per-slot reductions (integral costs keep any
        # summation order exact).
        ev = np.empty((Tt, plan.n_events), dtype=np.float64)
        hits = misses = lf = 0
        tags = lines = hit = None
        tr = self.machine.tracer
        rec = None
        if tr is not None and not tr.counts_only(plan.event_kinds):
            rec = np.full((Tt, plan.n_events), REC_NONE, dtype=np.int8)
        c = plan.c_cr
        if c.size:
            lines = g.L[:, c]
            cls = classify_events(lines.reshape(-1), pe_obj.cache.n_lines,
                                  initial_tags=pe_obj.cache.tags)
            tags = (cls.changed_sets, cls.changed_lines)
            hit = (cls.outcomes == OUT_HIT).reshape(Tt, c.size)
            lat = g.latency("r", extra)[:, c]
            home = g.local()[:, c]
            k = plan.k_crpv
            if k.size:  # private data: fixed miss cost, always home-local
                lat[:, k] = float(params.local_mem)
                home[:, k] = True
            hits = int(np.count_nonzero(hit))
            misses = Tt * c.size - hits
            lf = int(np.count_nonzero(~hit & home))
            lat[hit] = float(params.cache_hit)
            ev[:, c] = lat
            if rec is not None:
                rec[:, c] = np.where(hit, REC_HIT, REC_MISS)
        c = plan.c_ur
        if c.size:
            ev[:, c] = g.latency("u", extra)[:, c]
        c = plan.c_wsh
        if c.size:
            ev[:, c] = g.latency("w", extra)[:, c]
        c = plan.c_wpv
        if c.size:
            ev[:, c] = float(params.write_local)
        busy = const_total + float(ev.sum())
        if transfers and hit is not None:  # only cached-read hits stall
            clock, stalls = self._stall_clock(plan, pe_obj, lines, hit, Tt,
                                              ev, row_extra, busy)
        else:
            clock, stalls = pe_obj.clock + busy, ()
        self._commit(plan, pe_obj, g, Tt,
                     {"cache_hits": hits, "cache_misses": misses,
                      "local_fills": lf, "remote_fills": misses - lf},
                     pe_obj.stats.busy_cycles + busy, clock, stalls, tags,
                     None if rec is None else rec.ravel().tolist())

    def _pre_offsets(self, plan: _Plan, Tt: int, row_extra):
        """``(pre, tail)``: the constant cycles charged just before each
        event of a ``(Tt, n_slots)`` chunk (loop overhead and arithmetic;
        ``row_extra`` adds a fused chunk's outer-loop overheads) and the
        constant charged after the last event."""
        pre = np.empty((Tt, plan.n_events), dtype=np.float64)
        pre[:] = plan.const_before
        tail = plan.tail_const
        if Tt > 1:
            pre[1:, 0] += tail
        if row_extra is not None:
            pre[:, 0] += row_extra
        return pre, tail

    def _protocol_timing_pass(self, plan: _Plan, pe_obj, g: _Chunk,
                              Tt: int, row_extra) -> None:
        """:meth:`_timing_pass` for a chunk under a hardware protocol: the
        chunk's events, in program order, through
        :func:`~repro.machine.batchops.protocol_scan`."""
        rows = plan.protocol_rows
        if rows is None:
            rows = plan.protocol_rows = self._protocol_rows(plan)
        kinds, costs = rows
        pre, tail = self._pre_offsets(plan, Tt, row_extra)
        clock, busy, hits, lf = protocol_scan(
            self.machine.protocol, g.pe, pe_obj.clock,
            pe_obj.stats.busy_cycles,
            pre.ravel().tolist(), kinds * Tt, g.lines, g.homes, costs * Tt)
        misses = Tt * len(plan.cached_idx) - hits
        self._commit(plan, pe_obj, g, Tt,
                     {"cache_hits": hits, "cache_misses": misses,
                      "local_fills": lf, "remote_fills": misses - lf},
                     busy + tail, clock + tail)

    def _protocol_rows(self, plan: _Plan) -> tuple:
        """Per-slot constants of :meth:`_protocol_timing_pass`: event kinds
        (cached reads READ, cacheable shared writes INSTALL, private writes
        WRITE) and each slot's cost in the scan (a shared read's CRAFT
        extra, a private miss or write's fixed cost)."""
        p = self.params
        slots = plan.slots
        return (
            [READ if s.role == "cr" else INSTALL if s.shared else WRITE
             for s in slots],
            [s.extra if s.shared and s.role == "cr" else 0.0 if s.shared
             else float(p.local_mem if s.role == "cr" else p.write_local)
             for s in slots])

    def _stall_clock(self, plan: _Plan, pe_obj, lines: np.ndarray,
                     hit: np.ndarray, Tt: int, ev: np.ndarray, row_extra,
                     total: float):
        """Final PE clock with vector-transfer stalls resolved.

        Replays the reference rule on the flat event stream: a cached-read
        HIT whose line is covered by the earliest-completion matching
        transfer stalls to that completion (``wait_until``) when the
        pre-event clock is still short of it.  Integer event costs make
        every partial sum exact, so composing segments between stalls
        reproduces the reference's sequential float adds bit-for-bit.

        ``lines`` and ``hit`` are the cached columns' line and hit
        matrices.  Covers are computed per cached column — a column whose
        line range misses every live transfer costs no vector op, and when
        no column is covered at all the chunk's clock is ``clock0 + total``
        exactly (integral costs make both groupings the same float).
        Returns ``(clock, stalls)``, stalls as ordered
        ``(STALL_VECTOR, cycles)`` pairs."""
        n_slots = plan.n_events
        clock0 = pe_obj.clock
        # match() returns the earliest-completion covering transfer (list
        # order breaks ties), completed ones included — those shadow any
        # still-in-flight transfer on the lines they cover.
        all_transfers = list(pe_obj.vectors.transfers)
        spans = list(zip(lines.min(axis=0).tolist(),
                         lines.max(axis=0).tolist()))
        masks = []
        for ti, t in enumerate(all_transfers):
            if t.completion <= clock0:
                continue
            parts = []
            for k, i in enumerate(plan.cached_idx):
                lmin, lmax = spans[k]
                if lmax < t.line_lo or lmin > t.line_hi:
                    continue
                col = lines[:, k]
                cover = (col >= t.line_lo) & (col <= t.line_hi) & hit[:, k]
                for oi, o in enumerate(all_transfers):
                    if o is t:
                        continue
                    if (o.completion < t.completion
                            or (o.completion == t.completion and oi < ti)):
                        if lmax < o.line_lo or lmin > o.line_hi:
                            continue
                        cover &= ~((col >= o.line_lo) & (col <= o.line_hi))
                rows = np.flatnonzero(cover)
                if rows.size:
                    parts.append(rows * n_slots + i)
            if parts:
                cov_idx = parts[0] if len(parts) == 1 else np.sort(
                    np.concatenate(parts))
                masks.append([t, cov_idx, None])
        if not masks:
            return clock0 + total, []
        pre, tail = self._pre_offsets(plan, Tt, row_extra)
        ev_f = ev.ravel()
        C = np.cumsum(pre.ravel() + ev_f)
        D = C - ev_f  # clock offset just before each event's own cost
        for item in masks:
            item[2] = D[item[1]]
        base = clock0
        base_D = 0.0
        base_idx = -1
        stalls: List[tuple] = []
        remaining = list(masks)
        while remaining:
            best_e = None
            best = None
            for item in remaining:
                t, cov_idx, cov_D = item
                cand = cov_idx[(base + (cov_D - base_D) < t.completion)
                               & (cov_idx > base_idx)]
                if cand.size and (best_e is None or cand[0] < best_e):
                    best_e = int(cand[0])
                    best = item
            if best_e is None:
                break
            t = best[0]
            prec = base + (D[best_e] - base_D)
            stalls.append((STALL_VECTOR, t.completion - prec))
            base = t.completion
            base_D = float(D[best_e])
            base_idx = best_e
            remaining.remove(best)
        if base_idx < 0:
            clock_final = clock0 + float(C[-1]) + tail
        else:
            clock_final = base + float(C[-1] - base_D) + tail
        return clock_final, stalls


__all__ = ["BatchedInterpreter", "MIN_BATCH_EVENTS"]

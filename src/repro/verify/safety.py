"""Static coherence-safety verification of CCDP-transformed programs.

The paper's correctness argument is operational: cached entries are
invalidated *before* each prefetch issues, dropped prefetches degrade to
bypass-cache fetches, and stale reference analysis covers every read
that may observe a stale copy.  This module turns that argument into a
machine-checked proof obligation over the transformed IR:

1. **Coverage** — re-run stale reference analysis on the *pre-transform*
   program; every potentially-stale read occurrence in the transformed
   program must be covered by a dominating prefetch of its own reference
   (or of its uniformly-generated group), by a dominating invalidation of
   its array, or by demotion to a bypass-cache fetch.  A read covered by
   none is an ``uncovered-stale-read``; a read both bypassed *and*
   prefetched is ``conflicting-coverage`` (the two disposals contradict).
2. **Invalidate-before-prefetch** — every prefetch statement must either
   carry the fused pre-issue invalidation (``invalidate_first``) or be
   dominated by an explicit :class:`InvalidateLines` of its array.
3. **Hoist safety** — no prefetch may have been scheduled above an epoch
   boundary (a DOALL loop that writes its array) or above a write that
   definitely aliases the prefetched reference, relative to the use it
   serves.
4. **Static queue model** — per loop body, the look-ahead prefetch
   footprint (sum of distances) must fit the hardware prefetch queue;
   anything larger is *provably* dropped at steady state and must have
   been bypass-converted by the compiler instead (paper rule 2).
5. **Interprocedural summaries** — a stale read summarised behind a
   serial call requires an invalidation of the array dominating the
   call site.

Dominance here is syntactic program-order dominance over statement
address chains, with two stated assumptions: loop bodies execute at
least once (the validator rejects constant zero-trip headers) and the
two arms of an ``If`` are mutually non-dominating.  Extent arithmetic of
vector prefetches and invalidation ranges is *not* proven statically —
the randomized differential fuzzer (:mod:`repro.verify.fuzz`) covers it
dynamically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.affine import AffineRef, affine_ref
from ..analysis.stale import analyse_stale_references
from ..ir.expr import ArrayRef, RefMode
from ..ir.program import Program
from ..ir.stmt import (Assign, CallStmt, If, InvalidateLines, Loop, LoopKind,
                       PrefetchLine, PrefetchVector, Stmt)

#: one step of a statement address: (role, index) where role is the slot
#: of the parent statement the child lives in.
Chain = Tuple[Tuple[str, int], ...]

_BRANCH_ROLES = ("then", "else")


def _root(node) -> int:
    """Collapse a clone/substitution lineage to its original uid."""
    return node.origin if node.origin is not None else node.uid


def _precedes(a: Chain, b: Chain) -> bool:
    """Strict program-order: does the statement at ``a`` execute before
    the one at ``b``?  False for ancestor/descendant pairs and for
    opposite ``If`` arms (no order is provable)."""
    for (ra, ia), (rb, ib) in zip(a, b):
        if ra == rb and ia == ib:
            continue
        if ra != rb:
            if {ra, rb} == {"preamble", "body"}:
                return ra == "preamble"
            return False  # then vs else: incomparable paths
        return ia < ib
    return False


def _divergence(a: Chain, b: Chain) -> int:
    for k, (ea, eb) in enumerate(zip(a, b)):
        if ea != eb:
            return k
    return min(len(a), len(b))


def _dominates(a: Chain, b: Chain) -> bool:
    """``a`` executes before ``b`` on *every* path that reaches ``b``.
    Loop bodies count as executed (>= 1 trip); anything behind an ``If``
    arm below the divergence point is conditional and does not
    dominate."""
    if not _precedes(a, b):
        return False
    k = _divergence(a, b)
    return all(role not in _BRANCH_ROLES for role, _ in a[k + 1:])


@dataclass
class Violation:
    """One provable break of a CCDP safety rule, with its IR location."""

    kind: str        #: e.g. "uncovered-stale-read", "prefetch-crosses-barrier"
    message: str
    proc: str
    location: str    #: human-readable statement path, e.g. "main/body[2]/doall j/body[0]"
    stmt_uid: int
    array: str = ""
    ref_uid: int = -1

    def describe(self) -> str:
        return f"[{self.kind}] {self.location}: {self.message}"


@dataclass
class SafetyReport:
    """Outcome of one static verification run."""

    version: str
    obligations: int = 0
    covered: Dict[str, int] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)
    unprotected_stale: int = 0   #: informational (naive: stale reads by design)
    notes: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        cov = ", ".join(f"{k}={v}" for k, v in sorted(self.covered.items())) or "none"
        head = (f"{self.version}: {self.obligations} obligation(s), "
                f"coverage {cov}, {len(self.violations)} violation(s)")
        if self.notes:
            head += f" [{self.notes}]"
        lines = [head]
        lines.extend("  " + v.describe() for v in self.violations)
        return "\n".join(lines)


@dataclass
class _Occ:
    """One shared-or-private array reference occurrence."""

    ref: ArrayRef
    stmt: Stmt
    proc: str
    chain: Chain
    loc: str
    is_write: bool


@dataclass
class _PF:
    stmt: Stmt
    proc: str
    chain: Chain
    loc: str
    array: str
    ref: Optional[ArrayRef]      #: PrefetchLine only
    distance: int
    invalidate_first: bool
    for_uid: Optional[int]
    for_root: Optional[int] = None


@dataclass
class _Inv:
    stmt: Stmt
    proc: str
    chain: Chain
    loc: str
    array: str


@dataclass
class _Call:
    stmt: Stmt
    proc: str
    chain: Chain
    loc: str
    root: int


@dataclass
class _Doall:
    stmt: Loop
    proc: str
    chain: Chain
    loc: str
    writes: frozenset


class _Index:
    """Flat occurrence/prefetch/invalidate index of one program, with
    statement address chains for program-order and dominance queries."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.occs: List[_Occ] = []
        self.prefetches: List[_PF] = []
        self.invalidates: List[_Inv] = []
        self.calls: List[_Call] = []
        self.doalls: List[_Doall] = []
        self.uid2ref: Dict[int, ArrayRef] = {}
        self.by_root: Dict[int, List[_Occ]] = {}
        self._arefs: Dict[int, Optional[AffineRef]] = {}
        # Walk only procedures reachable from the entry: inlining leaves
        # the original (now-uncalled) parallel callees behind, and their
        # dead bodies must not raise coverage obligations.
        for name in _reachable_procs(program):
            proc = program.procedures[name]
            self._walk_body(proc.name, proc.body, (), "body", proc.name)
        for pf in self.prefetches:
            if pf.for_uid is not None:
                ref = self.uid2ref.get(pf.for_uid)
                if ref is not None:
                    pf.for_root = _root(ref)

    # -- construction ---------------------------------------------------
    def _walk_body(self, proc: str, body: Sequence[Stmt], prefix: Chain,
                   role: str, path: str) -> None:
        for i, stmt in enumerate(body):
            chain = prefix + ((role, i),)
            loc = f"{path}/{role}[{i}]"
            self._walk_stmt(proc, stmt, chain, loc)

    def _walk_stmt(self, proc: str, stmt: Stmt, chain: Chain, loc: str) -> None:
        if isinstance(stmt, Loop):
            for expr in stmt.expressions():
                self._add_reads(proc, stmt, chain, loc, expr)
            kind = "doall" if stmt.kind == LoopKind.DOALL else "do"
            base = f"{loc}:{kind} {stmt.var}"
            if stmt.kind == LoopKind.DOALL:
                self.doalls.append(_Doall(stmt, proc, chain, loc,
                                          frozenset(_written_arrays(stmt))))
            if stmt.preamble:
                self._walk_body(proc, stmt.preamble, chain, "preamble", base)
            self._walk_body(proc, stmt.body, chain, "body", base)
            return
        if isinstance(stmt, If):
            self._add_reads(proc, stmt, chain, loc, stmt.cond)
            self._walk_body(proc, stmt.then_body, chain, "then", f"{loc}:if")
            self._walk_body(proc, stmt.else_body, chain, "else", f"{loc}:if")
            return
        if isinstance(stmt, Assign):
            if isinstance(stmt.lhs, ArrayRef):
                self._add_occ(stmt.lhs, stmt, proc, chain, loc, is_write=True)
                for sub in stmt.lhs.subscripts:
                    self._add_reads(proc, stmt, chain, loc, sub)
            self._add_reads(proc, stmt, chain, loc, stmt.rhs)
            return
        if isinstance(stmt, CallStmt):
            self.calls.append(_Call(stmt, proc, chain, loc, _root(stmt)))
            for arg in stmt.args:
                self._add_reads(proc, stmt, chain, loc, arg)
            return
        if isinstance(stmt, PrefetchLine):
            self.prefetches.append(_PF(stmt, proc, chain, loc,
                                       stmt.ref.array, stmt.ref,
                                       stmt.distance, stmt.invalidate_first,
                                       stmt.for_uid))
            return
        if isinstance(stmt, PrefetchVector):
            self.prefetches.append(_PF(stmt, proc, chain, loc, stmt.array,
                                       None, 0, stmt.invalidate_first,
                                       stmt.for_uid))
            return
        if isinstance(stmt, InvalidateLines):
            self.invalidates.append(_Inv(stmt, proc, chain, loc, stmt.array))
            return

    def _add_reads(self, proc: str, stmt: Stmt, chain: Chain, loc: str,
                   expr) -> None:
        for node in expr.walk():
            if isinstance(node, ArrayRef):
                self._add_occ(node, stmt, proc, chain, loc, is_write=False)

    def _add_occ(self, ref: ArrayRef, stmt: Stmt, proc: str, chain: Chain,
                 loc: str, *, is_write: bool) -> None:
        occ = _Occ(ref, stmt, proc, chain, loc, is_write)
        self.occs.append(occ)
        self.uid2ref[ref.uid] = ref
        self.by_root.setdefault(_root(ref), []).append(occ)

    # -- queries --------------------------------------------------------
    def aref(self, ref: ArrayRef) -> Optional[AffineRef]:
        if ref.uid not in self._arefs:
            decl = self.program.arrays.get(ref.array)
            self._arefs[ref.uid] = affine_ref(ref, decl) if decl is not None else None
        return self._arefs[ref.uid]


def _reachable_procs(program: Program) -> List[str]:
    """Entry procedure plus everything transitively called from it."""
    seen: List[str] = []
    work = [program.entry]
    while work:
        name = work.pop()
        if name in seen or name not in program.procedures:
            continue
        seen.append(name)
        stack: List[Stmt] = list(program.procedures[name].body)
        while stack:
            s = stack.pop()
            if isinstance(s, CallStmt):
                work.append(s.name)
            for body in s.bodies():
                stack.extend(body)
    return seen


def _written_arrays(stmt: Stmt) -> List[str]:
    names = []
    stack: List[Stmt] = [stmt]
    while stack:
        s = stack.pop()
        if isinstance(s, Assign) and isinstance(s.lhs, ArrayRef):
            names.append(s.lhs.array)
        for body in s.bodies():
            stack.extend(body)
    return names


def _definitely_aliases(a: Optional[AffineRef], b: Optional[AffineRef]) -> bool:
    """Definite (must-) aliasing: identical affine form in every
    dimension, constants included.  Deliberately *not* a may-alias test —
    the hoist check must never flag the legal stencil pattern of
    prefetching ``a(i+d)`` across a write of ``a(i)``."""
    if a is None or b is None or a.array != b.array:
        return False
    return (len(a.dims) == len(b.dims)
            and all(x.same_shape(y) and x.const == y.const
                    for x, y in zip(a.dims, b.dims)))


def _earliest(occs: List[_Occ]) -> _Occ:
    best = occs[0]
    for occ in occs[1:]:
        if _precedes(occ.chain, best.chain):
            best = occ
    return best


# ---------------------------------------------------------------------------
# obligations
# ---------------------------------------------------------------------------

def _stale_obligations(original: Program):
    """Stale reference analysis on the pre-transform program, keyed by
    *root* uid so obligations survive cloning and scheduling rewrites.

    The clone+inline mirrors the driver's own preprocessing: both start
    from the same original statements, so their origin chains collapse
    to the same roots."""
    from ..coherence.inline import inline_parallel_calls

    pre = original.clone()
    inline_parallel_calls(pre)
    stale = analyse_stale_references(pre)
    reads: Dict[int, object] = {}
    calls: Dict[Tuple[int, str], object] = {}
    for info in stale.stale_reads.values():
        if info.summarised_call is not None:
            calls[(_root(info.stmt), info.decl.name)] = info
        else:
            reads[_root(info.ref)] = info
    return reads, calls, len(stale.stale_reads)


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------

def verify_transform(original: Program, transformed: Program,
                     config=None, version: str = "ccdp") -> SafetyReport:
    """Prove the CCDP safety obligations of ``transformed`` against the
    stale-reference analysis of ``original``; returns a
    :class:`SafetyReport` whose ``violations`` list is empty iff the
    transform is provably coherent under this checker's model."""
    from ..coherence.config import CCDPConfig

    config = config or CCDPConfig()
    index = _Index(transformed)
    read_obl, call_obl, n_stale = _stale_obligations(original)
    report = SafetyReport(version=version,
                          obligations=len(read_obl) + len(call_obl))

    _check_coverage(index, read_obl, report)
    _check_call_invalidations(index, call_obl, report)
    _check_invalidate_before_prefetch(index, report)
    _check_hoists(index, report)
    _check_queue_model(index, config, report)
    return report


def verify_structural(program: Program, version: str) -> SafetyReport:
    """Version-aware wrapper for the non-CCDP versions, whose coherence
    contracts make stale-coverage obligations vacuous: ``seq`` has one
    PE, ``base`` never caches shared data, and ``naive`` promises
    nothing (its stale reads are the experiment).  Only the structural
    prefetch rules are checked — untransformed programs contain no
    prefetches, so they verify trivially clean."""
    index = _Index(program)
    report = SafetyReport(version=version, obligations=0,
                          notes=f"coverage vacuous for version {version!r}")
    if version == "naive":
        _, _, n_stale = _stale_obligations(program)
        report.unprotected_stale = n_stale
    _check_invalidate_before_prefetch(index, report)
    _check_hoists(index, report)
    return report


def verify_program(program: Program, version: str = "ccdp",
                   config=None) -> SafetyReport:
    """Verify one source program under one version's coherence contract,
    running the CCDP transform first when the version's scheme runs the
    transformed program."""
    from ..runtime.exec_config import SCHEMES

    if SCHEMES[version].transformed:
        from ..coherence.config import CCDPConfig
        from ..coherence.driver import ccdp_transform

        config = config or CCDPConfig()
        transformed, _ = ccdp_transform(program, config)
        return verify_transform(program, transformed, config, version)
    return verify_structural(program, version)


# -- rule 1: stale-read coverage -------------------------------------------

_MECH_ORDER = ("prefetch", "group", "bypass", "invalidate")


def _coverage_of(index: _Index, occ: _Occ) -> List[str]:
    mechanisms = []
    if occ.ref.mode == RefMode.BYPASS:
        mechanisms.append("bypass")
    root = _root(occ.ref)
    occ_aref = index.aref(occ.ref)
    for pf in index.prefetches:
        if pf.proc != occ.proc or not _dominates(pf.chain, occ.chain):
            continue
        if pf.for_root == root:
            mechanisms.append("prefetch")
        elif pf.array == occ.ref.array:
            if pf.ref is None:
                # a vector prefetch of the same array: group-padded block
                mechanisms.append("group")
            else:
                pf_aref = index.aref(pf.ref)
                if (occ_aref is not None and pf_aref is not None
                        and occ_aref.uniformly_generated_with(pf_aref)):
                    mechanisms.append("group")
    for inv in index.invalidates:
        if (inv.proc == occ.proc and inv.array == occ.ref.array
                and _dominates(inv.chain, occ.chain)):
            mechanisms.append("invalidate")
            break
    return mechanisms


def _check_coverage(index: _Index, read_obl: Dict[int, object],
                    report: SafetyReport) -> None:
    for root, info in sorted(read_obl.items()):
        occs = [o for o in index.by_root.get(root, []) if not o.is_write]
        if not occs:
            report.violations.append(Violation(
                "lost-stale-ref",
                f"stale read of {info.decl.name!r} (root uid {root}) has no "
                f"occurrence in the transformed program",
                proc="", location="<missing>", stmt_uid=-1,
                array=info.decl.name, ref_uid=root))
            continue
        for occ in occs:
            mechanisms = _coverage_of(index, occ)
            if not mechanisms:
                report.violations.append(Violation(
                    "uncovered-stale-read",
                    f"potentially-stale read {occ.ref!r} is neither "
                    f"prefetched, invalidated, nor bypass-converted",
                    proc=occ.proc, location=occ.loc, stmt_uid=occ.stmt.uid,
                    array=occ.ref.array, ref_uid=occ.ref.uid))
                continue
            if "bypass" in mechanisms and "prefetch" in mechanisms:
                report.violations.append(Violation(
                    "conflicting-coverage",
                    f"read {occ.ref!r} is bypass-converted yet still served "
                    f"by a prefetch — the disposals contradict",
                    proc=occ.proc, location=occ.loc, stmt_uid=occ.stmt.uid,
                    array=occ.ref.array, ref_uid=occ.ref.uid))
                continue
            chosen = next(m for m in _MECH_ORDER if m in mechanisms)
            report.covered[chosen] = report.covered.get(chosen, 0) + 1


# -- rule 5: interprocedural summaries -------------------------------------

def _check_call_invalidations(index: _Index, call_obl, report: SafetyReport) -> None:
    for (call_root, array), info in sorted(call_obl.items(),
                                           key=lambda kv: kv[0]):
        sites = [c for c in index.calls if c.root == call_root]
        if not sites:
            report.violations.append(Violation(
                "lost-stale-ref",
                f"stale summarised call (root uid {call_root}) reading "
                f"{array!r} has no call site in the transformed program",
                proc="", location="<missing>", stmt_uid=-1, array=array,
                ref_uid=call_root))
            continue
        for call in sites:
            if any(inv.proc == call.proc and inv.array == array
                   and _dominates(inv.chain, call.chain)
                   for inv in index.invalidates):
                report.covered["invalidate"] = report.covered.get("invalidate", 0) + 1
            else:
                report.violations.append(Violation(
                    "call-missing-invalidate",
                    f"call {getattr(call.stmt, 'name', '?')!r} reads stale "
                    f"{array!r} in its callee but no invalidation of "
                    f"{array!r} dominates the call",
                    proc=call.proc, location=call.loc, stmt_uid=call.stmt.uid,
                    array=array, ref_uid=call_root))


# -- rule 2: invalidate-before-prefetch ------------------------------------

def _check_invalidate_before_prefetch(index: _Index, report: SafetyReport) -> None:
    for pf in index.prefetches:
        if pf.invalidate_first:
            continue
        if any(inv.proc == pf.proc and inv.array == pf.array
               and _dominates(inv.chain, pf.chain)
               for inv in index.invalidates):
            continue
        report.violations.append(Violation(
            "prefetch-missing-invalidate",
            f"prefetch of {pf.array!r} issues without a prior invalidation "
            f"of its line (no fused invalidate, no dominating explicit one)",
            proc=pf.proc, location=pf.loc, stmt_uid=pf.stmt.uid,
            array=pf.array))


# -- rule 3: hoist safety --------------------------------------------------

def _check_hoists(index: _Index, report: SafetyReport) -> None:
    for pf in index.prefetches:
        if pf.for_root is None:
            continue
        served = [o for o in index.by_root.get(pf.for_root, [])
                  if not o.is_write and o.proc == pf.proc
                  and _precedes(pf.chain, o.chain)]
        if not served:
            continue
        use = _earliest(served)
        for doall in index.doalls:
            if (doall.proc == pf.proc and pf.array in doall.writes
                    and _precedes(pf.chain, doall.chain)
                    and _precedes(doall.chain, use.chain)):
                report.violations.append(Violation(
                    "prefetch-crosses-barrier",
                    f"prefetch of {pf.array!r} was hoisted above the epoch "
                    f"boundary at {doall.loc} (a DOALL that writes "
                    f"{pf.array!r}); the prefetched copy goes stale before "
                    f"its use at {use.loc}",
                    proc=pf.proc, location=pf.loc, stmt_uid=pf.stmt.uid,
                    array=pf.array, ref_uid=use.ref.uid))
        if pf.ref is None:
            continue
        pf_aref = index.aref(pf.ref)
        for w in index.occs:
            if (w.is_write and w.proc == pf.proc and w.ref.array == pf.array
                    and _precedes(pf.chain, w.chain)
                    and _precedes(w.chain, use.chain)
                    and _definitely_aliases(pf_aref, index.aref(w.ref))):
                report.violations.append(Violation(
                    "prefetch-past-dependent-write",
                    f"prefetch of {pf.ref!r} was hoisted above the write "
                    f"{w.ref!r} at {w.loc} that definitely aliases it; the "
                    f"prefetched value predates the write its use at "
                    f"{use.loc} must observe",
                    proc=pf.proc, location=pf.loc, stmt_uid=pf.stmt.uid,
                    array=pf.array, ref_uid=w.ref.uid))


# -- rule 4: static queue model --------------------------------------------

def _check_queue_model(index: _Index, config, report: SafetyReport) -> None:
    slots = config.machine.prefetch_queue_slots
    groups: Dict[Tuple[str, Chain, str], List[_PF]] = {}
    for pf in index.prefetches:
        if pf.distance <= 0:
            continue  # straight-line prefetches retire at their use
        key = (pf.proc, pf.chain[:-1], pf.chain[-1][0])
        groups.setdefault(key, []).append(pf)
    for (proc, _, _), pfs in sorted(groups.items(), key=lambda kv: kv[0][0]):
        outstanding = sum(pf.distance for pf in pfs)
        if outstanding > slots:
            pf = pfs[0]
            report.violations.append(Violation(
                "queue-overflow",
                f"{len(pfs)} look-ahead prefetch(es) keep {outstanding} "
                f"lines outstanding at steady state but the queue holds "
                f"{slots}; the overflow is provably dropped and must be "
                f"bypass-converted instead (rule 2)",
                proc=proc, location=pf.loc, stmt_uid=pf.stmt.uid,
                array=pf.array))


__all__ = [
    "Violation", "SafetyReport",
    "verify_transform", "verify_program", "verify_structural",
]

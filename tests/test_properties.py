"""Property-based tests (hypothesis) on the core data structures and the
headline system invariant: *any* generated program, transformed by CCDP,
runs coherently and computes exactly the sequential result.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.ir as ir
from repro.analysis.affine import AffineForm, affine_of
from repro.analysis.sections import Section, SectionSet, Triplet
from repro.coherence import CCDPConfig, ccdp_transform
from repro.ir.dsl import parse_expr
from repro.ir.printer import format_expr
from repro.machine import Machine, t3d
from repro.machine.topology import torus_for
from repro.ir.arrays import ArrayDecl
from repro.runtime import Version, run_program
from repro.runtime.schedulers import (block_partition, cyclic_partition,
                                      dynamic_chunks, owner_partition)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

triplets = st.builds(
    lambda lo, span, step: Triplet(lo, lo + span, step),
    st.integers(1, 40), st.integers(-3, 40), st.integers(1, 5))

sections2d = st.builds(lambda t1, t2: Section("a", (t1, t2)), triplets, triplets)


def affine_exprs():
    atoms = st.sampled_from(["i", "j", "k", "1", "2", "3", "7"])

    def combine(children):
        return st.builds(lambda a, op, b: f"({a} {op} {b})",
                         children, st.sampled_from(["+", "-"]), children) | \
            st.builds(lambda c, a: f"({c} * {a})",
                      st.sampled_from(["2", "3", "-1", "0"]), children)

    return st.recursive(atoms, combine, max_leaves=8)


# ---------------------------------------------------------------------------
# triplet / section algebra
# ---------------------------------------------------------------------------

class TestTripletProperties:
    @given(triplets, triplets)
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(triplets)
    def test_self_overlap(self, t):
        assert t.empty or t.overlaps(t)

    @given(triplets, triplets)
    def test_hull_contains_members(self, a, b):
        h = a.hull(b)
        for t in (a, b):
            for v in list(range(t.lo, t.hi + 1, t.step))[:10]:
                assert h.lo <= v <= h.hi
                assert h.contains(v) or h.step == 1 or True  # hull is a cover

    @given(triplets, triplets)
    def test_exact_overlap_never_missed(self, a, b):
        """overlaps() may be conservative (claim overlap where none is)
        but must never miss a real shared point."""
        pts_a = set(range(a.lo, a.hi + 1, a.step)) if not a.empty else set()
        pts_b = set(range(b.lo, b.hi + 1, b.step)) if not b.empty else set()
        if pts_a & pts_b:
            assert a.overlaps(b)


class TestSectionSetProperties:
    @given(st.lists(sections2d, min_size=1, max_size=14))
    def test_union_is_sound(self, sections):
        """Every section ever added must still be reported as overlapping
        (over-approximation is allowed, dropping facts is not)."""
        ss = SectionSet("a")
        for section in sections:
            ss.add(section)
        for section in sections:
            if not section.empty:
                assert ss.overlaps(section)

    @given(st.lists(sections2d, min_size=1, max_size=10))
    def test_union_idempotent(self, sections):
        ss = SectionSet("a")
        for section in sections:
            ss.add(section)
        again = SectionSet("a")
        for section in ss.sections:
            again.add(section)
        assert not again.union(ss) or True  # no exception; bounded size
        assert len(ss.sections) <= SectionSet.MAX_DISJUNCTS


# ---------------------------------------------------------------------------
# affine forms
# ---------------------------------------------------------------------------

class TestAffineProperties:
    @given(affine_exprs(), affine_exprs(),
           st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=60)
    def test_affine_evaluation_matches_python(self, ta, tb, i, j, k):
        env = {"i": i, "j": j, "k": k}
        fa = affine_of(parse_expr(ta))
        fb = affine_of(parse_expr(tb))
        assume(fa is not None and fb is not None)
        expected_a = eval(ta, {}, env)
        expected_b = eval(tb, {}, env)
        assert fa.evaluate(env) == expected_a
        assert (fa + fb).evaluate(env) == expected_a + expected_b
        assert (fa - fb).evaluate(env) == expected_a - expected_b
        assert fa.scale(3).evaluate(env) == 3 * expected_a

    @given(affine_exprs())
    @settings(max_examples=40)
    def test_same_shape_is_reflexive(self, text):
        f = affine_of(parse_expr(text))
        assume(f is not None)
        assert f.same_shape(f)


# ---------------------------------------------------------------------------
# DSL round trip
# ---------------------------------------------------------------------------

class TestDslRoundTrip:
    @given(affine_exprs())
    @settings(max_examples=60)
    def test_expression_print_parse_fixpoint(self, text):
        expr = parse_expr(text)
        printed = format_expr(expr)
        reparsed = parse_expr(printed)
        assert format_expr(reparsed) == printed
        # structural equality too
        assert reparsed.key() == expr.key()


# ---------------------------------------------------------------------------
# torus metric
# ---------------------------------------------------------------------------

class TestTorusProperties:
    @given(st.integers(1, 48), st.data())
    @settings(max_examples=40)
    def test_metric_axioms(self, n, data):
        torus = torus_for(n)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        c = data.draw(st.integers(0, n - 1))
        assert torus.hops(a, a) == 0
        assert torus.hops(a, b) == torus.hops(b, a)
        assert torus.hops(a, c) <= torus.hops(a, b) + torus.hops(b, c)
        if a != b:
            assert torus.hops(a, b) >= 1


# ---------------------------------------------------------------------------
# iteration partitioning
# ---------------------------------------------------------------------------

class TestPartitionProperties:
    ranges = st.tuples(st.integers(1, 30), st.integers(0, 40),
                       st.integers(1, 3), st.integers(1, 8))

    @given(ranges)
    def test_block_partition_exact_cover(self, r):
        lo, span, step, pes = r
        hi = lo + span
        expected = list(range(lo, hi + 1, step))
        got = [v for c in block_partition(lo, hi, step, pes)
               for v in c.iterations()]
        assert sorted(got) == expected
        assert len(got) == len(expected)  # no duplicates

    @given(ranges)
    def test_cyclic_partition_exact_cover(self, r):
        lo, span, step, pes = r
        hi = lo + span
        expected = sorted(range(lo, hi + 1, step))
        got = sorted(v for vs in cyclic_partition(lo, hi, step, pes) for v in vs)
        assert got == expected

    @given(ranges, st.integers(1, 6))
    def test_dynamic_chunks_exact_cover(self, r, chunk):
        lo, span, step, _ = r
        hi = lo + span
        expected = sorted(range(lo, hi + 1, step))
        got = sorted(v for c in dynamic_chunks(lo, hi, step, chunk)
                     for v in c.iterations())
        assert got == expected

    @given(st.integers(1, 8), st.integers(2, 24))
    def test_owner_partition_matches_ownership(self, pes, extent):
        decl = ArrayDecl("a", (2, extent))
        parts = owner_partition(1, extent, 1, pes,
                                lambda v: decl.owner_of_axis_index(v, pes))
        for pe, values in enumerate(parts):
            assert all(decl.owner_of_axis_index(v, pes) == pe for v in values)
        assert sorted(v for vs in parts for v in vs) == list(range(1, extent + 1))


# ---------------------------------------------------------------------------
# cache model vs. an independent reference implementation
# ---------------------------------------------------------------------------

class ReferenceCache:
    """Dict-based direct-mapped cache used as an independent oracle."""

    def __init__(self, n_lines, line_words):
        self.n_lines = n_lines
        self.line_words = line_words
        self.lines = {}  # set -> (line_addr, [values], [versions])

    def read(self, addr):
        line = addr // self.line_words
        entry = self.lines.get(line % self.n_lines)
        if entry is None or entry[0] != line:
            return None
        off = addr - line * self.line_words
        return entry[1][off], entry[2][off]

    def install(self, line, values, versions):
        self.lines[line % self.n_lines] = (line, list(values), list(versions))

    def write_update(self, addr, value, version):
        line = addr // self.line_words
        entry = self.lines.get(line % self.n_lines)
        if entry is None or entry[0] != line:
            return False
        off = addr - line * self.line_words
        entry[1][off] = value
        entry[2][off] = version
        return True

    def invalidate(self, line):
        entry = self.lines.get(line % self.n_lines)
        if entry is not None and entry[0] == line:
            del self.lines[line % self.n_lines]
            return True
        return False


ops = st.lists(
    st.tuples(st.sampled_from(["read", "install", "write", "invalidate"]),
              st.integers(0, 255)),
    min_size=1, max_size=80)


class TestCacheAgainstReference:
    @given(ops)
    @settings(max_examples=60)
    def test_equivalence(self, sequence):
        from repro.machine.cache import DirectMappedCache
        params = t3d(1, cache_bytes=256)  # 8 lines x 4 words
        dut = DirectMappedCache(params)
        ref = ReferenceCache(params.n_lines, params.line_words)
        version = 0
        for op, addr in sequence:
            line = addr // params.line_words
            if op == "read":
                assert dut.read(addr) == ref.read(addr)
            elif op == "install":
                version += 1
                values = np.arange(4, dtype=float) + version
                versions = np.full(4, version, dtype=np.int64)
                dut.install(line, values, versions)
                ref.install(line, values, versions)
            elif op == "write":
                version += 1
                assert dut.write_through_update(addr, float(version), version) \
                    == ref.write_update(addr, float(version), version)
            else:
                assert dut.invalidate_line(line) == ref.invalidate(line)


# ---------------------------------------------------------------------------
# vectorised trace classification vs. the reference cache
# ---------------------------------------------------------------------------

from repro.machine import batchops

#: 8 lines x 4 words of cache, addresses over 64 lines -> every set sees
#: up to 8 aliasing lines, so conflict evictions are routine.
fast_traces = st.lists(st.integers(0, 255), min_size=1, max_size=100)

#: Per-set starting state: -1 empty, else which of the 8 aliasing lines
#: is resident before the trace.
warm_starts = st.lists(st.integers(-1, 7), min_size=8, max_size=8)


class TestClassifyTraceAgainstReference:
    """``batchops.classify_events`` (the batched backend's kernel) must
    reproduce the reference ``DirectMappedCache`` for *any* read trace
    from *any* resident state: per-read outcome, and the final tag diff
    the backend commits."""

    def _check(self, addrs, aliases, params):
        from repro.machine.cache import DirectMappedCache

        dut = DirectMappedCache(params)
        zeros = np.zeros(params.line_words)
        zvers = np.zeros(params.line_words, dtype=np.int64)
        for set_index, alias in enumerate(aliases):
            if alias >= 0:
                dut.install(set_index + params.n_lines * alias, zeros, zvers)
        initial = dut.tags.copy()

        lines = np.array(addrs, dtype=np.int64) // params.line_words
        result = batchops.classify_events(lines, params.n_lines,
                                          initial_tags=initial)

        for i, addr in enumerate(addrs):
            resident = dut.probe(addr)
            expected = batchops.OUT_HIT if resident else batchops.OUT_MISS
            assert result.outcomes[i] == expected, \
                f"read {i}: {'hit' if resident else 'miss'} expected"
            if not resident:
                dut.install(addr // params.line_words, zeros, zvers)

        changed = np.flatnonzero(dut.tags != initial)
        assert sorted(result.changed_sets.tolist()) == changed.tolist()
        final = dict(zip(result.changed_sets.tolist(),
                         result.changed_lines.tolist()))
        assert final == {int(s): int(dut.tags[s]) for s in changed}

    @given(fast_traces, warm_starts)
    @settings(max_examples=80)
    def test_read_trace_equivalence(self, addrs, aliases):
        self._check(addrs, aliases, t3d(1, cache_bytes=256))

    @given(st.integers(0, 7),
           st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3)),
                    min_size=1, max_size=60),
           warm_starts)
    @settings(max_examples=60)
    def test_single_set_aliasing(self, set_index, picks, aliases):
        """Adversarial conflict traffic: every read lands in one cache
        set, cycling through its 8 aliasing lines."""
        params = t3d(1, cache_bytes=256)
        addrs = [(set_index + params.n_lines * alias) * params.line_words + off
                 for alias, off in picks]
        self._check(addrs, aliases, params)


# ---------------------------------------------------------------------------
# machine-level coherence invariant under random operations
# ---------------------------------------------------------------------------

machine_ops = st.lists(
    st.tuples(st.sampled_from(["read", "write", "prefetch", "invalidate", "vector"]),
              st.integers(0, 3),    # pe
              st.integers(0, 63)),  # flat element of a (4,16) array
    min_size=1, max_size=60)


class TestMachineCoherenceInvariant:
    @given(machine_ops)
    @settings(max_examples=40, deadline=None)
    def test_unflagged_reads_are_always_fresh(self, sequence):
        """Every read either returns the current memory value or is
        flagged as stale — silent incoherence must be impossible."""
        machine = Machine([ArrayDecl("a", (4, 16))], t3d(4, cache_bytes=256))
        counter = 0.0
        for op, pe, flat in sequence:
            if op == "read":
                before = machine.stats.stale_reads
                value = machine.read(pe, "a", flat)
                flagged = machine.stats.stale_reads > before
                if not flagged:
                    assert value == machine.memory.read("a", flat)
            elif op == "write":
                counter += 1.0
                machine.write(pe, "a", flat, counter)
            elif op == "prefetch":
                machine.prefetch_line(pe, "a", flat)
            elif op == "invalidate":
                machine.invalidate(pe, "a", flat, min(flat + 7, 63))
            else:
                machine.prefetch_vector(pe, "a", min(flat, 55), 8)

    @given(machine_ops)
    @settings(max_examples=25, deadline=None)
    def test_invalidate_before_read_is_always_coherent(self, sequence):
        """The CCDP correctness rule in miniature: if every read is
        preceded by an invalidation of its line, no read is ever stale."""
        machine = Machine([ArrayDecl("a", (4, 16))], t3d(4, cache_bytes=256))
        counter = 0.0
        for op, pe, flat in sequence:
            if op == "read":
                machine.invalidate(pe, "a", flat, flat)
                value = machine.read(pe, "a", flat)
                assert value == machine.memory.read("a", flat)
            elif op == "write":
                counter += 1.0
                machine.write(pe, "a", flat, counter)
            elif op == "prefetch":
                machine.prefetch_line(pe, "a", flat)
            elif op == "vector":
                machine.prefetch_vector(pe, "a", min(flat, 55), 8)
        assert machine.stats.stale_reads == 0


# ---------------------------------------------------------------------------
# whole-system property: CCDP == SEQ for generated stencil programs
# ---------------------------------------------------------------------------

def build_random_stencil(n, offsets, steps, serial_bc):
    b = ir.ProgramBuilder("gen")
    b.shared("x", (n, n))
    b.shared("y", (n, n))
    with b.proc("main"):
        with b.doall("j", 1, n, label="init", align="x"):
            with b.do("i", 1, n):
                b.assign(b.ref("x", "i", "j"),
                         ir.E("i") * 0.5 + ir.E("j") * ir.E("j") * 0.03)
                b.assign(b.ref("y", "i", "j"), 0.0)
        with b.do("t", 1, steps):
            if serial_bc:
                with b.do("jb", 1, n):
                    b.assign(b.ref("x", 1, "jb"), b.ref("x", 2, "jb") * 0.5)
            with b.doall("j", 1 + max(0, -min(offsets)),
                         n - max(0, max(offsets)), label="sweep", align="x"):
                with b.do("i", 1, n):
                    expr = ir.E(0.0)
                    for off in offsets:
                        sub = ir.E("j") + off if off else ir.E("j")
                        expr = expr + b.ref("x", "i", sub)
                    b.assign(b.ref("y", "i", "j"), expr * (1.0 / len(offsets)))
            with b.doall("j", 2, n - 1, label="update", align="x"):
                with b.do("i", 1, n):
                    b.assign(b.ref("x", "i", "j"),
                             b.ref("x", "i", "j") * 0.6 + b.ref("y", "i", "j") * 0.4)
    return b.finish()


class TestSystemProperty:
    @given(st.integers(9, 14),
           st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True),
           st.integers(1, 3), st.booleans(), st.integers(2, 5))
    @settings(max_examples=12, deadline=None)
    def test_ccdp_equals_sequential(self, n, offsets, steps, serial_bc, n_pes):
        program = build_random_stencil(n, offsets, steps, serial_bc)
        params = t3d(n_pes, cache_bytes=512)
        seq = run_program(program, t3d(1, cache_bytes=512), Version.SEQ)
        transformed, _ = ccdp_transform(program, CCDPConfig(machine=params))
        ccdp = run_program(transformed, params, Version.CCDP, on_stale="raise")
        assert ccdp.stats.stale_reads == 0
        assert np.allclose(ccdp.value_of("x"), seq.value_of("x"))
        assert np.allclose(ccdp.value_of("y"), seq.value_of("y"))


class TestProgramRoundTrip:
    @given(st.integers(9, 14),
           st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True),
           st.integers(1, 2), st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_generated_programs_round_trip_through_dsl(self, n, offsets,
                                                       steps, serial_bc):
        from repro.ir.dsl import parse_program
        from repro.ir.printer import format_program

        program = build_random_stencil(n, offsets, steps, serial_bc)
        text = format_program(program)
        assert format_program(parse_program(text)) == text

    @given(st.integers(9, 12),
           st.lists(st.integers(-2, 2), min_size=1, max_size=2, unique=True))
    @settings(max_examples=10, deadline=None)
    def test_transformed_programs_round_trip_through_dsl(self, n, offsets):
        from repro.ir.dsl import parse_program
        from repro.ir.printer import format_program

        program = build_random_stencil(n, offsets, 2, True)
        transformed, _ = ccdp_transform(
            program, CCDPConfig(machine=t3d(3, cache_bytes=512)))
        text = format_program(transformed)
        assert format_program(parse_program(text)) == text

    @given(st.integers(9, 12),
           st.lists(st.integers(-1, 1), min_size=1, max_size=2, unique=True))
    @settings(max_examples=10, deadline=None)
    def test_clone_is_structurally_identical(self, n, offsets):
        from repro.ir.printer import format_program

        program = build_random_stencil(n, offsets, 1, False)
        assert format_program(program.clone()) == format_program(program)


class TestIndependenceSoundness:
    """Static DOALL-independence (GCD test) vs the dynamic race detector:
    whenever the static checker proves a random affine loop independent,
    executing it must produce zero intra-epoch races."""

    @given(st.integers(8, 16),                 # array extent
           st.integers(-3, 3),                 # write offset coefficient c
           st.sampled_from([0, 1, 2]),         # write coeff a on the par index
           st.integers(-3, 3),                 # read offset
           st.sampled_from([0, 1, 2]),         # read coeff b
           st.integers(1, 2))                  # loop step
    @settings(max_examples=40, deadline=None)
    def test_static_clean_implies_dynamic_race_free(self, n, wc, wa, rc, rb,
                                                    step):
        from repro.analysis.parcheck import check_doall_independence
        from repro.runtime import ExecutionConfig, Interpreter

        import math

        def valid_range(coeff, const):
            if coeff == 0:
                assume(1 <= const <= n)
                return (1, n)
            lo_v = math.ceil((1 - const) / coeff)
            hi_v = math.floor((n - const) / coeff)
            return (lo_v, hi_v)

        wlo, whi = valid_range(wa, wc)
        rlo, rhi = valid_range(rb, rc)
        lo = max(1, wlo, rlo)
        hi_limit = min(n, whi, rhi)
        assume(lo + 2 <= hi_limit)

        def sub(coeff, const):
            base = ir.mul("j", coeff) if coeff else ir.IntConst(0)
            expr = ir.add(base, const) if const or not coeff else base
            return expr

        b = ir.ProgramBuilder("gen")
        b.shared("a", (4, n))
        with b.proc("main"):
            with b.doall("j", lo, hi_limit, step):
                b.assign(ir.ArrayRef("a", [ir.IntConst(1), sub(wa, wc)]),
                         ir.ArrayRef("a", [ir.IntConst(2), sub(rb, rc)]))
        program = b.finish()

        static = check_doall_independence(program)
        interp = Interpreter(program, t3d(4, cache_bytes=512),
                             ExecutionConfig.for_version(Version.CCDP))
        interp.machine.race_check = True
        interp.run()
        if static.clean:
            assert interp.machine.races == 0, \
                f"static said clean but races={interp.machine.race_examples}"

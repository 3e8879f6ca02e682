"""Vectorised trace-driven cache evaluation: exactness against the
reference cache model, plus the analysis helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.cache import DirectMappedCache
from repro.machine.fastcache import (INSTALL, INVALIDATE, OUT_HIT, OUT_MISS,
                                     OUT_NA, READ, WRITE, classify_read_trace,
                                     classify_trace, conflict_profile,
                                     miss_rate_vs_cache_size)
from repro.machine.params import t3d

PARAMS = t3d(1, cache_bytes=256)  # 8 sets x 4 words


def reference_outcomes(addrs, kinds):
    """Drive the reference DirectMappedCache event by event."""
    cache = DirectMappedCache(PARAMS)
    data = np.zeros(PARAMS.line_words)
    vers = np.zeros(PARAMS.line_words, dtype=np.int64)
    out = []
    for addr, kind in zip(addrs, kinds):
        line = addr // PARAMS.line_words
        if kind == READ:
            if cache.read(addr) is None:
                out.append(OUT_MISS)
                cache.install(line, data, vers)
            else:
                out.append(OUT_HIT)
        elif kind == WRITE:
            cache.write_through_update(addr, 0.0, 0)
            out.append(OUT_NA)
        elif kind == INSTALL:
            cache.install(line, data, vers)
            out.append(OUT_NA)
        else:
            cache.invalidate_line(line)
            out.append(OUT_NA)
    return np.array(out, dtype=np.int8)


class TestExactness:
    def test_simple_reuse(self):
        addrs = np.array([0, 1, 2, 3, 0, 4, 0])
        result = classify_read_trace(addrs, PARAMS)
        # first touch misses, same-line touches hit
        assert result.outcomes.tolist() == [OUT_MISS, OUT_HIT, OUT_HIT,
                                            OUT_HIT, OUT_HIT, OUT_MISS, OUT_HIT]

    def test_conflict_thrash(self):
        # lines 0 and 8 share set 0 (8 sets): alternating reads all miss
        addrs = np.array([0, 32, 0, 32, 0], dtype=np.int64)
        result = classify_read_trace(addrs, PARAMS)
        assert result.hits == 0 and result.misses == 5

    def test_empty_trace(self):
        result = classify_read_trace(np.array([], dtype=np.int64), PARAMS)
        assert result.reads == 0 and result.hit_rate == 0.0

    def test_writes_do_not_allocate(self):
        addrs = np.array([0, 0, 0])
        kinds = np.array([WRITE, READ, READ], dtype=np.int8)
        result = classify_trace(addrs, kinds, PARAMS)
        assert result.outcomes.tolist() == [OUT_NA, OUT_MISS, OUT_HIT]

    def test_invalidate_forces_miss(self):
        addrs = np.array([0, 0, 0, 0])
        kinds = np.array([READ, INVALIDATE, READ, READ], dtype=np.int8)
        result = classify_trace(addrs, kinds, PARAMS)
        assert result.outcomes.tolist() == [OUT_MISS, OUT_NA, OUT_MISS, OUT_HIT]

    def test_invalidate_of_absent_line_is_noop(self):
        addrs = np.array([0, 32, 0], dtype=np.int64)  # set 0 holds line 8
        kinds = np.array([READ, INVALIDATE, READ], dtype=np.int8)
        result = classify_trace(addrs, kinds, PARAMS)
        # the invalidate names line 8 which IS resident... make it absent:
        addrs2 = np.array([0, 33 * 4, 0], dtype=np.int64)  # line 33: set 1
        kinds2 = np.array([READ, INVALIDATE, READ], dtype=np.int8)
        result2 = classify_trace(addrs2, kinds2, PARAMS)
        assert result2.outcomes[2] == OUT_HIT

    def test_install_prefills(self):
        addrs = np.array([0, 0])
        kinds = np.array([INSTALL, READ], dtype=np.int8)
        result = classify_trace(addrs, kinds, PARAMS)
        assert result.outcomes[1] == OUT_HIT

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            classify_trace(np.array([0, 1]), np.array([READ], dtype=np.int8),
                           PARAMS)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 127)),
                    min_size=1, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_equivalence_with_reference(self, events):
        kinds = np.array([k for k, _ in events], dtype=np.int8)
        addrs = np.array([a for _, a in events], dtype=np.int64)
        fast = classify_trace(addrs, kinds, PARAMS)
        ref = reference_outcomes(addrs, kinds)
        assert fast.outcomes.tolist() == ref.tolist()

    @given(st.lists(st.integers(0, 127), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_pure_read_path_matches_general_path(self, raw):
        addrs = np.array(raw, dtype=np.int64)
        fast = classify_read_trace(addrs, PARAMS)
        general = classify_trace(addrs, None, PARAMS)
        assert fast.outcomes.tolist() == general.outcomes.tolist()
        assert fast.hits == general.hits


class TestAnalysisHelpers:
    def test_miss_rate_decreases_with_cache_size(self):
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 4096, size=4000)
        curve = miss_rate_vs_cache_size(addrs, PARAMS,
                                        (256, 1024, 8192, 65536))
        rates = list(curve.values())
        assert rates == sorted(rates, reverse=True)

    def test_streaming_miss_rate_is_one_per_line(self):
        addrs = np.arange(4096, dtype=np.int64)
        result = classify_read_trace(addrs, PARAMS)
        assert result.misses == 4096 // PARAMS.line_words

    def test_conflict_profile_finds_power_of_two_aliasing(self):
        # two arrays whose columns are exactly one cache apart: every
        # paired access lands in the same set
        stride = PARAMS.cache_words
        pairs = []
        for i in range(64):
            pairs += [i % 4, stride + i % 4]
        addrs = np.array(pairs, dtype=np.int64)
        worst, counts = conflict_profile(addrs, PARAMS, top=3)
        assert counts[0] > 100  # set 0 thrashes on nearly every access

    def test_per_set_misses_sum_to_total(self):
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 1024, size=500)
        result = classify_read_trace(addrs, PARAMS)
        assert result.per_set_misses(PARAMS.n_lines).sum() == result.misses


class TestVpentaPathology:
    def test_explains_the_aliasing_cliff(self):
        """With 32x32x8B arrays each array is exactly one 8 KB cache, so
        same-(i,j) elements of consecutive arrays collide in one set —
        the fast evaluator shows the cliff directly."""
        params = t3d(1, cache_bytes=8192)
        n = 32
        arrays = 7
        array_words = n * n
        # trace: for each (i, j), touch the 7 arrays' (i, j) elements
        element = np.arange(n * 4)  # a row-walk of 4 columns
        base = np.arange(arrays) * array_words
        addrs32 = (element[:, None] + base[None, :]).ravel()
        bad = classify_read_trace(addrs32, params)

        array_words33 = 33 * 33 + (4 - (33 * 33) % 4) % 4  # line padded
        base33 = np.arange(arrays) * array_words33
        addrs33 = (element[:, None] + base33[None, :]).ravel()
        good = classify_read_trace(addrs33, params)
        assert bad.hit_rate < 0.2
        assert good.hit_rate > 0.7

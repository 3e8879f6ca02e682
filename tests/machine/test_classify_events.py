"""``batchops.classify_events``: the one vectorised direct-mapped cache
classifier.  Exactness against the reference cache model, warm starts,
and the cold-cache questions ``ccdp profile`` asks of it (hit rate,
miss rate vs cache size, per-set conflict misses)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.batchops import (INSTALL, INVALIDATE, OUT_HIT, OUT_MISS,
                                    OUT_NA, READ, WRITE, classify_events)
from repro.machine.cache import DirectMappedCache
from repro.machine.params import t3d

PARAMS = t3d(1, cache_bytes=256)  # 8 sets x 4 words


def classify(addrs, kinds=None, params=PARAMS, tags=None):
    """Classify word addresses the way the batched backend and
    ``ccdp profile`` do: as line addresses against ``params``' cache."""
    lines = np.asarray(addrs, dtype=np.int64) // params.line_words
    return classify_events(lines, kinds, params.n_lines, initial_tags=tags)


def hits(cls) -> int:
    return int(np.count_nonzero(cls.outcomes == OUT_HIT))


def misses(cls) -> int:
    return int(np.count_nonzero(cls.outcomes == OUT_MISS))


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
        result = classify(np.array([0, 1, 2, 3, 0, 4, 0]))
        # first touch misses, same-line touches hit
        assert result.outcomes.tolist() == [OUT_MISS, OUT_HIT, OUT_HIT,
                                            OUT_HIT, OUT_HIT, OUT_MISS, OUT_HIT]

    def test_conflict_thrash(self):
        # lines 0 and 8 share set 0 (8 sets): alternating reads all miss
        result = classify(np.array([0, 32, 0, 32, 0], dtype=np.int64))
        assert hits(result) == 0 and misses(result) == 5

    def test_empty_trace(self):
        result = classify(np.array([], dtype=np.int64))
        assert len(result.outcomes) == 0 and len(result.present) == 0
        assert len(result.changed_sets) == 0

    def test_writes_do_not_allocate(self):
        result = classify(np.array([0, 0, 0]),
                          np.array([WRITE, READ, READ], dtype=np.int8))
        assert result.outcomes.tolist() == [OUT_NA, OUT_MISS, OUT_HIT]

    def test_invalidate_forces_miss(self):
        result = classify(np.array([0, 0, 0, 0]),
                          np.array([READ, INVALIDATE, READ, READ],
                                   dtype=np.int8))
        assert result.outcomes.tolist() == [OUT_MISS, OUT_NA, OUT_MISS, OUT_HIT]

    def test_invalidate_of_absent_line_is_noop(self):
        # line 33 maps to set 1; set 0 keeps line 0 resident
        result = classify(np.array([0, 33 * 4, 0], dtype=np.int64),
                          np.array([READ, INVALIDATE, READ], dtype=np.int8))
        assert result.outcomes[2] == OUT_HIT

    def test_install_prefills(self):
        result = classify(np.array([0, 0]),
                          np.array([INSTALL, READ], dtype=np.int8))
        assert result.outcomes[1] == OUT_HIT

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            classify(np.array([0, 1]), np.array([READ], dtype=np.int8))

    def test_warm_tags_hit_and_only_real_changes_are_reported(self):
        """A line resident before the trace hits on first touch; the final
        diff lists only sets whose resident line actually changed."""
        tags = np.full(PARAMS.n_lines, -1, dtype=np.int64)
        tags[0], tags[1] = 0, 9          # set 1 holds line 9
        result = classify(np.array([0, 4, 9 * 4, 2 * 4]),
                          np.array([READ, READ, INVALIDATE, INSTALL],
                                   dtype=np.int8), tags=tags)
        # read line 0 (warm hit), read line 1 (evicts 9), invalidate
        # line 9 (already gone), install line 2 into an empty set
        assert result.outcomes.tolist() == [OUT_HIT, OUT_MISS, OUT_NA, OUT_NA]
        assert result.present.tolist() == [True, False, False, False]
        assert dict(zip(result.changed_sets.tolist(),
                        result.changed_lines.tolist())) == {1: 1, 2: 2}
        assert tags[1] == 9, "classification must not mutate initial_tags"

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 127)),
                    min_size=1, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_equivalence_with_reference(self, events):
        kinds = np.array([k for k, _ in events], dtype=np.int8)
        addrs = np.array([a for _, a in events], dtype=np.int64)
        fast = classify(addrs, kinds)
        ref = reference_outcomes(addrs, kinds)
        assert fast.outcomes.tolist() == ref.tolist()

    @given(st.lists(st.integers(0, 127), min_size=1, max_size=200),
           st.lists(st.integers(-1, 4), min_size=8, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_pure_read_path_matches_general_path(self, raw, aliases):
        """All-read traces take a shortcut; a trailing WRITE (which neither
        installs nor changes any earlier outcome) forces the general
        install/invalidate path.  Both must agree, from any warm start."""
        addrs = np.array(raw, dtype=np.int64)
        tags = np.array([-1 if k < 0 else s + PARAMS.n_lines * k
                         for s, k in enumerate(aliases)], dtype=np.int64)
        fast = classify(addrs, None, tags=tags)
        kinds = np.array([READ] * len(raw) + [WRITE], dtype=np.int8)
        general = classify(np.append(addrs, 0), kinds, tags=tags)
        n = len(raw)
        assert fast.outcomes.tolist() == general.outcomes[:n].tolist()
        assert fast.present.tolist() == general.present[:n].tolist()
        assert fast.changed_sets.tolist() == general.changed_sets.tolist()
        assert fast.changed_lines.tolist() == general.changed_lines.tolist()


class TestAnalysisHelpers:
    def test_miss_rate_decreases_with_cache_size(self):
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 4096, size=4000)
        rates = [misses(classify(addrs, params=PARAMS.with_(cache_bytes=size)))
                 / len(addrs) for size in (256, 1024, 8192, 65536)]
        assert rates == sorted(rates, reverse=True)

    def test_streaming_miss_rate_is_one_per_line(self):
        result = classify(np.arange(4096, dtype=np.int64))
        assert misses(result) == 4096 // PARAMS.line_words

    def test_conflict_profile_finds_power_of_two_aliasing(self):
        # two arrays whose columns are exactly one cache apart: every
        # paired access lands in the same set
        stride = PARAMS.cache_words
        pairs = []
        for i in range(64):
            pairs += [i % 4, stride + i % 4]
        addrs = np.array(pairs, dtype=np.int64)
        result = classify(addrs)
        per_set = np.bincount(
            (addrs // PARAMS.line_words)[result.outcomes == OUT_MISS]
            % PARAMS.n_lines, minlength=PARAMS.n_lines)
        assert int(np.argmax(per_set)) == 0
        assert per_set[0] > 100  # set 0 thrashes on nearly every access

    def test_per_set_misses_sum_to_total(self):
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 1024, size=500)
        result = classify(addrs)
        sets = (addrs // PARAMS.line_words) % PARAMS.n_lines
        per_set = np.bincount(sets[result.outcomes == OUT_MISS],
                              minlength=PARAMS.n_lines)
        assert per_set.sum() == misses(result)


class TestVpentaPathology:
    def test_explains_the_aliasing_cliff(self):
        """With 32x32x8B arrays each array is exactly one 8 KB cache, so
        same-(i,j) elements of consecutive arrays collide in one set —
        the cold classification shows the cliff directly."""
        params = t3d(1, cache_bytes=8192)
        n = 32
        arrays = 7
        array_words = n * n
        # trace: for each (i, j), touch the 7 arrays' (i, j) elements
        element = np.arange(n * 4)  # a row-walk of 4 columns
        base = np.arange(arrays) * array_words
        addrs32 = (element[:, None] + base[None, :]).ravel()
        bad = classify(addrs32, params=params)

        array_words33 = 33 * 33 + (4 - (33 * 33) % 4) % 4  # line padded
        base33 = np.arange(arrays) * array_words33
        addrs33 = (element[:, None] + base33[None, :]).ravel()
        good = classify(addrs33, params=params)
        assert hits(bad) / len(addrs32) < 0.2
        assert hits(good) / len(addrs33) > 0.7

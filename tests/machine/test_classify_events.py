"""``batchops.classify_events``: the one vectorised direct-mapped cache
classifier.  Exactness against the reference cache model, warm starts,
and the cold-cache questions ``ccdp profile`` asks of it (hit rate,
miss rate vs cache size, per-set conflict misses)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.machine.batchops import OUT_HIT, OUT_MISS, classify_events
from repro.machine.cache import DirectMappedCache
from repro.machine.params import t3d

PARAMS = t3d(1, cache_bytes=256)  # 8 sets x 4 words


def classify(addrs, params=PARAMS, tags=None):
    """Classify word addresses the way the batched backend and
    ``ccdp profile`` do: as line addresses against ``params``' cache."""
    lines = np.asarray(addrs, dtype=np.int64) // params.line_words
    return classify_events(lines, params.n_lines, initial_tags=tags)


def hits(cls) -> int:
    return int(np.count_nonzero(cls.outcomes == OUT_HIT))


def misses(cls) -> int:
    return int(np.count_nonzero(cls.outcomes == OUT_MISS))


def reference_run(addrs, tags):
    """Drive the reference DirectMappedCache read by read from resident
    lines ``tags``: per-read outcomes and the final tags."""
    cache = DirectMappedCache(PARAMS)
    cache.tags[:] = tags
    data = np.zeros(PARAMS.line_words)
    vers = np.zeros(PARAMS.line_words, dtype=np.int64)
    out = []
    for addr in addrs:
        if cache.read(addr) is None:
            out.append(OUT_MISS)
            cache.install(addr // PARAMS.line_words, data, vers)
        else:
            out.append(OUT_HIT)
    return out, cache.tags


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
        assert len(result.outcomes) == 0
        assert len(result.changed_sets) == 0

    def test_warm_tags_hit_and_only_real_changes_are_reported(self):
        """A line resident before the trace hits on first touch; the final
        diff lists only sets whose resident line actually changed."""
        tags = np.full(PARAMS.n_lines, -1, dtype=np.int64)
        tags[0], tags[1], tags[2] = 0, 9, 2   # set 1 holds line 9
        result = classify(np.array([0, 4, 10 * 4, 2 * 4]), tags=tags)
        # read line 0 (warm hit), read line 1 (evicts 9), read line 10
        # (evicts 2), read line 2 (evicts 10: set 2 ends as it started)
        assert result.outcomes.tolist() == [OUT_HIT, OUT_MISS, OUT_MISS,
                                            OUT_MISS]
        assert dict(zip(result.changed_sets.tolist(),
                        result.changed_lines.tolist())) == {1: 1}
        assert tags[1] == 9, "classification must not mutate initial_tags"

    @given(st.lists(st.integers(0, 127), min_size=1, max_size=200),
           st.lists(st.integers(-1, 4), min_size=8, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_equivalence_with_reference(self, raw, aliases):
        """From any warm start: per-read outcomes, and the tag diff the
        batched backend commits, match the reference cache."""
        addrs = np.array(raw, dtype=np.int64)
        tags = np.array([-1 if k < 0 else s + PARAMS.n_lines * k
                         for s, k in enumerate(aliases)], dtype=np.int64)
        fast = classify(addrs, tags=tags)
        ref_out, ref_tags = reference_run(raw, tags)
        assert fast.outcomes.tolist() == ref_out
        changed = np.flatnonzero(ref_tags != tags)
        assert fast.changed_sets.tolist() == changed.tolist()
        assert fast.changed_lines.tolist() == ref_tags[changed].tolist()


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

"""Content-addressed digests and the run-scoped merge cache."""

import numpy as np
import pytest

from repro.core import fingerprint
from repro.core.fingerprint import (
    MISSING,
    MergeCache,
    combine_digests,
    digest_arrays,
    merge_cache_default,
    state_fingerprint_of,
)


class TestDigestArrays:
    def test_deterministic(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert digest_arrays(a) == digest_arrays(a.copy())
        assert len(digest_arrays(a)) == 16

    def test_value_sensitive(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, 2.0 + 1e-15])
        assert digest_arrays(a) != digest_arrays(b)

    def test_shape_sensitive(self):
        flat = np.zeros(4)
        square = np.zeros((2, 2))
        assert flat.tobytes() == square.tobytes()
        assert digest_arrays(flat) != digest_arrays(square)

    def test_integer_input_coerced_to_float(self):
        assert digest_arrays(np.array([1, 2, 3])) == digest_arrays(
            np.array([1.0, 2.0, 3.0])
        )

    def test_argument_order_matters(self):
        a, b = np.array([1.0]), np.array([2.0])
        assert digest_arrays(a, b) != digest_arrays(b, a)

    def test_non_contiguous_view_equals_contiguous_copy(self):
        base = np.arange(12, dtype=float).reshape(3, 4)
        view = base[:, ::2]
        assert digest_arrays(view) == digest_arrays(np.ascontiguousarray(view))


class TestCombineDigests:
    def test_order_insensitive(self):
        d1 = digest_arrays(np.array([1.0]))
        d2 = digest_arrays(np.array([2.0]))
        assert combine_digests([d1, d2]) == combine_digests([d2, d1])

    def test_duplicates_do_not_cancel(self):
        d = digest_arrays(np.array([1.0]))
        assert combine_digests([d, d]) != combine_digests([])
        assert combine_digests([d, d]) != combine_digests([d])

    def test_content_sensitive(self):
        d1 = digest_arrays(np.array([1.0]))
        d2 = digest_arrays(np.array([2.0]))
        assert combine_digests([d1]) != combine_digests([d2])


class TestStateFingerprint:
    def test_order_insensitive(self):
        d1 = digest_arrays(np.array([1.0]))
        d2 = digest_arrays(np.array([2.0]))
        assert state_fingerprint_of([(d1, 3), (d2, 5)]) == state_fingerprint_of(
            [(d2, 5), (d1, 3)]
        )

    def test_quanta_sensitive(self):
        d = digest_arrays(np.array([1.0]))
        assert state_fingerprint_of([(d, 3)]) != state_fingerprint_of([(d, 4)])

    def test_pairing_not_just_multiset(self):
        # Swapping which digest carries which quanta must change the print.
        d1 = digest_arrays(np.array([1.0]))
        d2 = digest_arrays(np.array([2.0]))
        assert state_fingerprint_of([(d1, 3), (d2, 5)]) != state_fingerprint_of(
            [(d1, 5), (d2, 3)]
        )


class TestMergeCache:
    def test_lookup_miss_returns_missing(self):
        cache = MergeCache()
        assert cache.lookup("absent") is MISSING
        assert cache.counters() == {"cache_misses": 0, "cache_noop_hits": 0}

    def test_store_then_lookup(self):
        cache = MergeCache()
        plan = object()
        cache.store("plan", plan)
        cache.store("never a no-op", None)
        assert cache.lookup("plan") is plan
        # A stored None is an answer ("never a no-op"), not a miss.
        assert cache.lookup("never a no-op") is None

    def test_plan_table_is_dropped_whole_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(fingerprint, "_MAX_PLANS", 2)
        cache = MergeCache()
        cache.store("a", None)
        cache.store("b", None)
        cache.store("a", None)  # the table is full: it is dropped, then "a" stored
        assert cache.lookup("a") is None
        assert cache.lookup("b") is MISSING

    def test_counters_snapshot(self):
        cache = MergeCache()
        cache.record_miss()
        cache.record_noop()
        cache.record_noop()
        assert cache.counters() == {"cache_misses": 1, "cache_noop_hits": 2}


class TestEnvironmentDefaults:
    def test_cache_on_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_MERGE_CACHE", raising=False)
        assert merge_cache_default() is True

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", " OFF "])
    def test_disable_spellings(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_MERGE_CACHE", value)
        assert merge_cache_default() is False

    def test_other_values_enable(self, monkeypatch):
        monkeypatch.setenv("REPRO_MERGE_CACHE", "1")
        assert merge_cache_default() is True

"""Content-addressed digests and the run-scoped merge cache."""

import numpy as np
import pytest

from repro.core.fingerprint import (
    MergeCache,
    combine_digests,
    digest_arrays,
    merge_cache_default,
    state_fingerprint_of,
)
from repro.core.receive import ReceiveRows


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


def _entry(tag: float) -> ReceiveRows:
    summary = np.array([tag])
    return ReceiveRows(
        (digest_arrays(summary),),
        np.array([1], dtype=np.int64),
        {"position": summary[None, :]},
        (1,),
    )


class TestMergeCache:
    def test_lookup_miss_returns_none(self):
        cache = MergeCache(max_entries=4)
        assert cache.lookup("absent") is None
        assert cache.hits == 0

    def test_store_then_hit(self):
        cache = MergeCache(max_entries=4)
        entry = _entry(1.0)
        cache.store("k", entry)
        assert cache.lookup("k") is entry
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction_at_capacity(self):
        cache = MergeCache(max_entries=2)
        cache.store("a", _entry(1.0))
        cache.store("b", _entry(2.0))
        cache.store("c", _entry(3.0))
        assert cache.evictions == 1
        assert cache.lookup("a") is None
        assert cache.lookup("c") is not None

    def test_lookup_refreshes_recency(self):
        cache = MergeCache(max_entries=2)
        cache.store("a", _entry(1.0))
        cache.store("b", _entry(2.0))
        cache.lookup("a")
        cache.store("c", _entry(3.0))  # evicts "b", not the freshly-used "a"
        assert cache.lookup("a") is not None
        assert cache.lookup("b") is None

    def test_counters_snapshot(self):
        cache = MergeCache(max_entries=2)
        cache.store("a", _entry(1.0))
        cache.lookup("a")
        cache.record_noop()
        assert cache.counters() == {
            "cache_hits": 1,
            "cache_misses": 1,
            "cache_evictions": 0,
            "cache_noop_hits": 1,
        }

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="max_entries"):
            MergeCache(max_entries=0)


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

    def test_size_knob(self):
        assert MergeCache().max_entries == 4096

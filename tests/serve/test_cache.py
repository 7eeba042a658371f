"""Property-based tests for the LRU tile cache.

The cache is modeled against a trivially-correct reference (a dict plus
a recency list) under random traffic: every ``get``/``put`` interleaving
must agree on contents, recency order, hit/miss/evict counts, and the
capacity bound.  Degenerate capacity-1 behaviour and content-hash
equality of equal-value arrays get their own cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import TileCache, content_key


class ModelLRU:
    """Reference LRU: a dict + explicit recency list, no cleverness."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.data = {}
        self.recency = []  # least- to most-recently used
        self.hits = self.misses = self.evictions = self.insertions = 0

    def get(self, key):
        if key in self.data:
            self.hits += 1
            self.recency.remove(key)
            self.recency.append(key)
            return self.data[key]
        self.misses += 1
        return None

    def put(self, key, value):
        if key in self.data:
            self.data[key] = value
            self.recency.remove(key)
            self.recency.append(key)
            return
        self.data[key] = value
        self.recency.append(key)
        self.insertions += 1
        if len(self.data) > self.capacity:
            oldest = self.recency.pop(0)
            del self.data[oldest]
            self.evictions += 1


#: an operation is ("get" | "put", small key-space integer), or
#: ("get_many", a short key list that may repeat a key)
_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["get", "put"]), st.integers(0, 9)),
        st.tuples(st.just("get_many"),
                  st.lists(st.integers(0, 9), max_size=6))),
    max_size=200,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ops=_ops, capacity=st.integers(1, 6))
def test_matches_reference_lru(ops, capacity):
    """``get_many`` is checked against the model's *sequential* ``get``:
    the same values, counters and recency order, repeated keys too."""
    cache = TileCache(capacity)
    model = ModelLRU(capacity)
    for verb, k in ops:
        if verb == "get_many":
            keys = [f"k{i}" for i in k]
            assert cache.get_many(keys) == [model.get(key) for key in keys]
        elif verb == "get":
            assert cache.get(f"k{k}") == model.get(f"k{k}")
        else:
            cache.put(f"k{k}", k)
            model.put(f"k{k}", k)
        # invariants after every operation
        assert len(cache) <= capacity
        assert cache.keys() == model.recency
        assert set(cache.keys()) == set(model.data)
        assert (cache.hits, cache.misses) == (model.hits, model.misses)
        assert cache.evictions == model.evictions
        assert cache.insertions == model.insertions
        assert cache.insertions - cache.evictions == len(cache)
    stats = cache.stats
    assert stats.lookups == stats.hits + stats.misses
    assert 0.0 <= stats.hit_rate <= 1.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(keys=st.lists(st.integers(0, 5), min_size=1, max_size=60))
def test_capacity_one_keeps_only_last_put(keys):
    """Degenerate capacity: the cache holds exactly the last key put."""
    cache = TileCache(1)
    for k in keys:
        cache.put(f"k{k}", k)
        assert len(cache) == 1
        assert cache.keys() == [f"k{k}"]
    # only the final key hits; every other lookup misses
    last = keys[-1]
    for probe in range(6):
        got = cache.get(f"k{probe}")
        assert (got == last) if probe == last else (got is None)


class TestContentKey:
    def test_equal_content_distinct_arrays_collide(self):
        """The content hash is a function of values, not identity — two
        separately-allocated equal arrays MUST share a cache entry."""
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 8, 8)).astype(np.float32)
        b = a.copy()
        assert a is not b
        assert content_key(a) == content_key(b)
        cache = TileCache(4)
        cache.put(content_key(a), 42)
        assert cache.get(content_key(b)) == 42
        assert cache.hits == 1 and cache.misses == 0

    def test_noncontiguous_view_hashes_like_copy(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((8, 8)).astype(np.float32)
        view = base[::1, ::2]
        assert content_key(view) == content_key(view.copy())

    def test_value_dtype_and_shape_all_matter(self):
        a = np.zeros((2, 4), dtype=np.float32)
        assert content_key(a) != content_key(np.ones((2, 4), dtype=np.float32))
        assert content_key(a) != content_key(np.zeros((2, 4), dtype=np.float64))
        assert content_key(a) != content_key(np.zeros((4, 2), dtype=np.float32))
        assert content_key(a) != content_key(np.zeros((8,), dtype=np.float32))

    def test_negative_zero_is_not_positive_zero(self):
        """Bitwise caching: -0.0 and +0.0 compare equal but are distinct
        inputs, and the contract is byte-level."""
        pos = np.zeros((4,), dtype=np.float32)
        neg = -pos
        assert content_key(pos) != content_key(neg)


class TestCacheSemantics:
    def test_rejects_capacity_below_one(self):
        with pytest.raises(ValueError):
            TileCache(0)

    def test_get_refreshes_recency_and_redirects_eviction(self):
        cache = TileCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")        # refresh: b becomes the LRU entry
        assert cache.put("c", 3) == "b"
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_get_many_is_one_get_per_key_in_order(self):
        cache = TileCache(3)
        for key in "abc":
            cache.put(key, key.upper())
        miss = object()
        assert cache.get_many(["a", "x", "a", "b"], miss) == [
            "A", miss, "A", "B"]
        assert cache.keys() == ["c", "a", "b"]
        assert (cache.hits, cache.misses) == (3, 1)

    def test_reput_updates_without_insertion_or_eviction(self):
        cache = TileCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.put("a", 10) is None
        assert cache.insertions == 2 and cache.evictions == 0
        assert cache.get("a") == 10
        assert cache.keys() == ["b", "a"]

    def test_contains_and_keys_do_not_touch_stats(self):
        cache = TileCache(2)
        cache.put("a", 1)
        assert "a" in cache and "b" not in cache
        cache.keys()
        assert cache.hits == 0 and cache.misses == 0
        assert cache.keys() == ["a"]

    def test_stored_arrays_are_frozen_copies(self):
        """Mutating the caller's buffer after put, or the returned hit,
        cannot corrupt the cached bytes."""
        cache = TileCache(2)
        src = np.arange(6, dtype=np.float32)
        cache.put("a", src)
        src[:] = -1.0
        hit = cache.get("a")
        np.testing.assert_array_equal(hit, np.arange(6, dtype=np.float32))
        with pytest.raises(ValueError):
            hit[0] = 99.0

    def test_read_only_array_is_stored_and_returned_without_copy(self):
        """The hit path's fast path: an already-frozen array is stored
        as-is, and ``get`` hands back the resident object itself."""
        cache = TileCache(2)
        frozen = np.arange(6, dtype=np.float32)
        frozen.flags.writeable = False
        cache.put("frozen", frozen)
        assert cache.get("frozen") is frozen
        cache.put("writable", np.arange(6, dtype=np.float32))
        assert cache.get("writable") is cache.get("writable")

    def test_clear_empties_but_keeps_counters(self):
        cache = TileCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 1 and cache.insertions == 1

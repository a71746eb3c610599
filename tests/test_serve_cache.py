"""Price-cache properties: exact LRU semantics, stable canonical keys, and
bitwise hit/miss equivalence.

The cache is the one component of the serve layer that could silently move
a price (by returning the wrong entry) or silently grow without bound, so
its invariants are pinned with hypothesis against a reference model: a
plain dict + recency list replayed through the same operation sequence.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.serve import (PriceCache, PricingRequest, PriceQuote, request_key,
                         stable_key)
from repro.utils.lru import BoundedLRU
from repro.verify.determinism import float_bits
from repro.workloads.generators import basket_workload

# An operation sequence over a small key space so evictions and re-puts
# actually happen: ("get", k) or ("put", k, v).
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("get"), st.integers(0, 7)),
        st.tuples(st.just("put"), st.integers(0, 7), st.integers(0, 99)),
    ),
    max_size=60,
)


class _ReferenceLRU:
    """Textbook LRU against which PriceCache is replayed; ``weigh`` gives
    an entry's share of the capacity (1 by default)."""

    def __init__(self, capacity, weigh=lambda value: 1):
        self.capacity = capacity
        self.weigh = weigh
        self.data = {}
        self.recency = []  # LRU ... MRU
        self.hits = self.misses = self.evictions = 0

    def _touch(self, key):
        self.recency.remove(key)
        self.recency.append(key)

    def get(self, key):
        if key not in self.data:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(key)
        return self.data[key]

    def put(self, key, value):
        if self.weigh(value) > self.capacity:
            return 0
        if key in self.data:
            self.recency.remove(key)
        self.data[key] = value
        self.recency.append(key)
        evicted = 0
        while sum(map(self.weigh, self.data.values())) > self.capacity:
            del self.data[self.recency.pop(0)]
            evicted += 1
        self.evictions += evicted
        return evicted


def _weight(value) -> int:
    """A put value's drawn weight, 1 to 6: above some capacities."""
    return 1 + value % 6


class _WeighedLRU(BoundedLRU):
    def weigh(self, value):
        return _weight(value)


class TestLRUProperties:
    @settings(max_examples=150, deadline=None)
    @given(_ops, st.integers(1, 5))
    def test_matches_reference_model(self, ops, capacity):
        for cache, weigh in ((PriceCache(capacity), lambda value: 1),
                             (_WeighedLRU(capacity), _weight)):
            ref = _ReferenceLRU(capacity, weigh)
            for op in ops:
                if op[0] == "get":
                    key = f"k{op[1]}"
                    assert cache.get(key) == ref.get(key)
                else:
                    key, value = f"k{op[1]}", op[2]
                    assert cache.put(key, value) == ref.put(key, value)
                # Invariants after every single operation: bounded weight,
                # and identical contents *and* recency order.
                assert cache.weight == sum(map(weigh, ref.data.values()))
                assert cache.weight <= capacity
                assert list(cache.keys()) == ref.recency
            assert len(cache) == len(ref.data)
            assert (cache.hits, cache.misses, cache.evictions) == (
                ref.hits, ref.misses, ref.evictions)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 20))
    def test_eviction_is_least_recently_used(self, capacity, n_puts):
        cache = PriceCache(capacity)
        for i in range(n_puts):
            cache.put(f"k{i}", i)
        # The survivors are exactly the most recent `capacity` puts.
        expected = [f"k{i}" for i in range(max(0, n_puts - capacity), n_puts)]
        assert list(cache.keys()) == expected
        assert cache.evictions == max(0, n_puts - capacity)

    def test_get_refreshes_recency(self):
        cache = PriceCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # a becomes MRU
        cache.put("c", 3)           # evicts b, not a
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_contains_does_not_touch_recency(self):
        cache = PriceCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache          # membership only — a stays LRU
        cache.put("c", 3)
        assert "a" not in cache and "b" in cache

    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            PriceCache(0)


class TestHitBitwiseEqualsMiss:
    def test_cached_quote_is_the_recomputed_quote_bitwise(self):
        from repro.serve.service import price_request

        w = basket_workload(2)
        request = PricingRequest(w, engine="mc", n_paths=2_000, seed=11, p=2)
        cache = PriceCache(8)
        key = request_key(request)

        miss = price_request(request)
        cache.put(key, miss)
        hit = cache.get(key)
        recomputed = price_request(request)
        assert float_bits(hit.price) == float_bits(recomputed.price)
        assert float_bits(hit.stderr) == float_bits(recomputed.stderr)
        assert hit == recomputed  # dataclass equality: every field
        assert cache.hits == 1 and cache.misses == 0


class TestKeyStability:
    """Equivalent request configs must collide; meaningful changes must not."""

    def test_permuted_but_equivalent_numeric_containers(self):
        # list vs tuple vs np.array of the same weights: one canonical key.
        docs = [
            {"weights": [0.25, 0.75], "strike": 100.0},
            {"weights": (0.25, 0.75), "strike": 100.0},
            {"weights": np.array([0.25, 0.75]), "strike": 100.0},
        ]
        keys = {stable_key(d) for d in docs}
        assert len(keys) == 1

    def test_key_order_is_canonicalized(self):
        assert (stable_key({"a": 1, "b": 2})
                == stable_key({"b": 2, "a": 1}))

    def test_display_name_is_not_part_of_the_key(self):
        w = basket_workload(2)
        a = PricingRequest(w, engine="mc", n_paths=1000, seed=3, name="desk-A")
        b = PricingRequest(w, engine="mc", n_paths=1000, seed=3, name="desk-B")
        assert request_key(a) == request_key(b)

    def test_engine_irrelevant_settings_are_excluded(self):
        # A lattice request ignores n_paths/seed/grid — changing them must
        # not fragment the cache.
        w = basket_workload(2)
        a = PricingRequest(w, engine="lattice", steps=32, n_paths=1000,
                           seed=3, grid=64)
        b = PricingRequest(w, engine="lattice", steps=32, n_paths=9999,
                           seed=77, grid=128)
        assert request_key(a) == request_key(b)

    def test_engine_relevant_settings_do_change_the_key(self):
        w = basket_workload(2)
        base = PricingRequest(w, engine="mc", n_paths=1000, seed=3)
        assert request_key(base) != request_key(
            PricingRequest(w, engine="mc", n_paths=1000, seed=4))
        assert request_key(base) != request_key(
            PricingRequest(w, engine="mc", n_paths=2000, seed=3))

    def test_different_contracts_never_collide(self):
        a = PricingRequest(basket_workload(2), engine="mc", n_paths=1000)
        b = PricingRequest(basket_workload(3), engine="mc", n_paths=1000)
        assert request_key(a) != request_key(b)

    def test_key_is_a_sha256_hexdigest(self):
        key = request_key(PricingRequest(basket_workload(2), engine="mc"))
        assert len(key) == 64
        int(key, 16)  # hex-parsable


class TestMetricsMirror:
    def test_counters_track_hits_misses_evictions(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        cache = PriceCache(1, metrics=metrics)
        cache.get("missing")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)  # evicts a
        assert metrics.counter("serve.cache_misses").value == 1
        assert metrics.counter("serve.cache_hits").value == 1
        assert metrics.counter("serve.cache_evictions").value == 1
        assert cache.hit_rate == 0.5

    def test_labels_split_counters_per_shard(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        shard0 = PriceCache(4, metrics=metrics, labels={"shard": 0})
        shard1 = PriceCache(4, metrics=metrics, labels={"shard": 1})
        shard0.put("a", 1)
        shard0.get("a")
        shard1.get("a")          # miss: caches are disjoint objects
        assert metrics.counter("serve.cache_hits", shard="0").value == 1
        assert metrics.counter("serve.cache_hits", shard="1").value == 0
        assert metrics.counter("serve.cache_misses", shard="1").value == 1
        # The registry-wide aggregate sums the labeled variants.
        assert metrics.sum_counters("serve.cache_hits") == 1
        assert metrics.sum_counters("serve.cache_misses") == 1
        # Unlabeled caches keep writing the bare series, unaffected.
        bare = PriceCache(4, metrics=metrics)
        bare.get("nope")
        assert metrics.counter("serve.cache_misses").value == 1
        assert metrics.sum_counters("serve.cache_misses") == 2


class TestQuoteValue:
    def test_quote_is_plain_and_comparable(self):
        q = PriceQuote(engine="mc", price=1.25, stderr=0.01, sim_time=0.5)
        assert q == PriceQuote(engine="mc", price=1.25, stderr=0.01,
                               sim_time=0.5)
        with pytest.raises(AttributeError):
            q.price = 2.0  # frozen

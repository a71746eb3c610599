"""Contract-hash price cache: LRU over canonical SHA-256 request keys.

A pricing service sees the same contracts over and over — the same hedge
re-marked every few seconds, the same benchmark book replayed nightly.
Every engine in this repo is deterministic in its request config, so a
price is a *pure function of its key* and can be served from memory
without recomputation. The key is the same canonical-JSON SHA-256 idiom
the verification corpus uses (:func:`repro.verify.contracts.config_hash`):
market + payoff + expiry + engine settings, with display names excluded —
so permuted-but-equivalent configs (dict ordering, list-vs-array
parameters, relabeled workloads) collapse onto one entry.

Correctness contract, asserted by the property suite and the determinism
checker: a cache **hit is bitwise identical** to the recomputed miss —
the cache stores the finished quote object, never a re-derived value —
and capacity eviction is exact LRU (least-recently *used*: every hit
refreshes recency).
"""

from __future__ import annotations

import hashlib

from repro.obs.metrics import BoundSeries
from repro.utils.lru import BoundedLRU
from repro.utils.validation import check_positive_int
from repro.verify.contracts import canonical_json

__all__ = ["PriceCache", "stable_key"]


def stable_key(doc) -> str:
    """SHA-256 hex digest of ``doc``'s canonical JSON.

    Canonical JSON sorts keys and normalizes numpy scalars/arrays, so any
    two structurally equivalent documents — whatever their dict insertion
    order or array container types — produce the same key.
    """
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


class PriceCache(BoundedLRU):
    """Bounded, thread-safe LRU (a :class:`~repro.utils.lru.BoundedLRU`)
    mapping contract hash → price quote: at most ``capacity`` × (one
    :class:`~repro.serve.PriceQuote` and its 64-character key) stay
    resident. The service's batch executor and any thread backend can
    share one cache.

    ``metrics`` (a :class:`~repro.obs.MetricsRegistry`) mirrors the hit /
    miss / eviction tallies as ``serve.cache_*`` counters. ``labels``
    qualifies those series (e.g. ``labels={"shard": "3"}`` yields
    ``serve.cache_hits{shard=3}``), so the sharded gateway's N disjoint
    caches report per-shard hit rates into one shared registry instead
    of collapsing onto a service-global counter.
    """

    def __init__(self, capacity: int = 1024, *, metrics=None,
                 labels: dict[str, object] | None = None):
        self.capacity = check_positive_int("capacity", capacity)
        super().__init__(self.capacity)
        self.labels = {str(k): str(v) for k, v in (labels or {}).items()}
        self.metrics = metrics

    @property
    def metrics(self):
        return None if self._m is None else self._m.registry

    @metrics.setter
    def metrics(self, metrics) -> None:
        self._m = None if metrics is None else BoundSeries(metrics, **self.labels)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: str):
        """The cached quote, refreshing recency — or ``None`` on a miss."""
        value = super().get(key)
        if self._m is not None:
            self._m["counter", "serve.cache_misses" if value is None
                    else "serve.cache_hits"].inc()
        return value

    def put(self, key: str, value) -> int:
        """Insert (or refresh) ``key``; evict LRU entries over capacity."""
        evicted = super().put(key, value)
        if evicted and self._m is not None:
            self._m["counter", "serve.cache_evictions"].inc(evicted)
        return evicted

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
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.obs.metrics import BoundSeries
from repro.utils.validation import check_positive_int
from repro.verify.contracts import canonical_json

__all__ = ["CacheEntry", "PriceCache", "stable_key"]


def stable_key(doc) -> str:
    """SHA-256 hex digest of ``doc``'s canonical JSON.

    Canonical JSON sorts keys and normalizes numpy scalars/arrays, so any
    two structurally equivalent documents — whatever their dict insertion
    order or array container types — produce the same key.
    """
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    """One cached quote: the key it lives under plus the stored value."""

    key: str
    value: object


class PriceCache:
    """Bounded, thread-safe LRU mapping of contract hash → price quote.

    ``get`` refreshes recency on a hit and returns ``None`` on a miss;
    ``put`` inserts/refreshes and evicts from the least-recently-used end
    until the capacity invariant ``len(self) <= capacity`` holds again.
    A single lock covers each operation — the service's batch executor and
    any thread backend can share one cache.

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
        self.labels = {str(k): str(v) for k, v in (labels or {}).items()}
        self.metrics = metrics
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def metrics(self):
        return None if self._m is None else self._m.registry

    @metrics.setter
    def metrics(self, metrics) -> None:
        self._m = None if metrics is None else BoundSeries(metrics, **self.labels)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Membership test; deliberately does *not* refresh recency."""
        return key in self._entries

    def keys(self) -> tuple[str, ...]:
        """Keys from least- to most-recently used (the eviction order)."""
        return tuple(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: str):
        """The cached value, refreshing recency — or ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                if self._m is not None:
                    self._m["counter", "serve.cache_misses"].inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            if self._m is not None:
                self._m["counter", "serve.cache_hits"].inc()
            return entry.value

    def put(self, key: str, value) -> CacheEntry:
        """Insert (or refresh) ``key``; evict LRU entries over capacity."""
        entry = CacheEntry(key, value)
        with self._lock:
            if key in self._entries:
                del self._entries[key]
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                if self._m is not None:
                    self._m["counter", "serve.cache_evictions"].inc()
        return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

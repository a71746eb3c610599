"""The one bounded, thread-safe LRU map behind every memo on the pricing
path: the request-key fragment memo, a draw scope and the price cache."""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["BoundedLRU"]


class BoundedLRU:
    """Map whose entries' total :meth:`weigh` stays at most ``cap``: ``get``
    refreshes recency and counts a hit or a miss, ``put`` evicts from the
    least-recently-used end, ``in`` leaves recency alone. One lock covers
    each operation. Values are never ``None``, what ``get`` returns on a
    miss."""

    def __init__(self, cap: int):
        self.cap = cap
        self.weight = self.hits = self.misses = self.evictions = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def weigh(self, value) -> int:
        """An entry's share of ``cap``: 1, so ``cap`` counts entries."""
        return 1

    def get(self, key):
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
            return value

    def put(self, key, value) -> int:
        """Insert or replace ``key``, refusing an entry heavier than
        ``cap``; returns the number of entries evicted."""
        weight = self.weigh(value)
        if weight > self.cap:
            return 0
        entries, evicted = self._entries, 0
        with self._lock:
            if key in entries:
                self.weight -= self.weigh(entries.pop(key))
            entries[key] = value
            self.weight += weight
            while self.weight > self.cap:
                self.weight -= self.weigh(entries.popitem(last=False)[1])
                evicted += 1
            self.evictions += evicted
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.weight = self.hits = self.misses = self.evictions = 0

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> tuple:
        """Keys from least- to most-recently used (the eviction order)."""
        return tuple(self._entries)

"""Pure shard router: canonical contract hash → shard index.

The gateway scales :class:`~repro.serve.PricingService` horizontally by
keeping N shard workers, each with its **own** price cache. The routing
invariant that makes those caches hot *and disjoint* is purely
arithmetic: a request's shard is a function of its canonical cache key
(:func:`~repro.serve.batching.request_key`, the SHA-256 the cache and
the verification corpus already use) and the shard count — nothing else.
Two equivalent requests land on the same shard from any gateway process,
any submission order, any interleaving; two different shards can never
cache the same contract.

Because SHA-256 output is uniform, taking the top 64 bits modulo
``n_shards`` balances any real contract book to within sampling noise —
the hypothesis property suite (``tests/test_gateway_router.py``) pins
stability, permutation invariance and a max/min load bound.
"""

from __future__ import annotations

from repro.serve.batching import PricingRequest, request_key
from repro.utils.validation import check_positive_int

__all__ = ["shard_index", "route"]

#: Hex digits of the key used for routing (top 64 bits of the SHA-256).
_ROUTE_HEX_DIGITS = 16


def shard_index(key: str, n_shards: int) -> int:
    """Shard owning canonical key ``key`` among ``n_shards`` shards.

    Pure and stateless: top 64 bits of the hex digest, modulo the shard
    count. The same ``(key, n_shards)`` pair routes identically in every
    process, forever — resharding (changing ``n_shards``) is the only
    operation that moves a contract.
    """
    check_positive_int("n_shards", n_shards)
    if not key:
        raise ValueError("shard_index needs a non-empty hex key")
    return int(key[:_ROUTE_HEX_DIGITS], 16) % n_shards


def route(request: PricingRequest, n_shards: int) -> int:
    """Shard owning ``request`` — ``shard_index`` of its canonical key."""
    return shard_index(request_key(request), n_shards)

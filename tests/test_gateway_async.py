"""Tests for the asyncio ShardedGateway front-end.

Wall-clock code paths only get *structural* assertions here (quotes
bitwise-equal to direct pricing, sheds surfaced as decisions, caches
disjoint per shard, clean lifecycle); all timing-sensitive overload
behavior lives in the virtual-time tier (``test_gateway_overload.py``),
which exercises the same ``GatewayCore``.
"""

from __future__ import annotations

import asyncio

from repro.gateway import GatewayRequest, ShardedGateway
from repro.gateway.admission import Decision
from repro.gateway.router import route
from repro.obs.metrics import MetricsRegistry
from repro.serve.batching import PricingRequest
from repro.serve.service import PriceQuote, price_request
from repro.workloads.generators import strike_strip


def _requests(n: int, *, n_paths: int = 800) -> list[PricingRequest]:
    book = strike_strip(n)
    return [PricingRequest(c, engine="mc", n_paths=n_paths, seed=i,
                           name=c.name)
            for i, c in enumerate(book)]


def test_quotes_match_direct_pricing_bitwise():
    reqs = _requests(6)

    async def main():
        async with ShardedGateway(n_shards=2) as gw:
            greqs = [GatewayRequest(request=r, deadline_s=60.0)
                     for r in reqs]
            return await gw.price_many(greqs)

    replies = asyncio.run(main())
    assert all(isinstance(q, PriceQuote) for q in replies)
    for req, quote in zip(reqs, replies):
        direct = price_request(req)
        assert quote.price == direct.price
        assert quote.stderr == direct.stderr


def test_replay_hits_disjoint_shard_caches():
    reqs = _requests(8)
    metrics = MetricsRegistry()

    async def main():
        async with ShardedGateway(n_shards=2, metrics=metrics) as gw:
            greqs = [GatewayRequest(request=r, deadline_s=60.0)
                     for r in reqs]
            first = await gw.price_many(greqs)
            second = await gw.price_many(greqs)
            return first, second

    first, second = asyncio.run(main())
    assert [q.price for q in first] == [q.price for q in second]
    # The replay is pure cache hits, split across both shard caches
    # exactly as the router assigns the contracts.
    hits0 = metrics.counter("serve.cache_hits", shard="0").value
    hits1 = metrics.counter("serve.cache_hits", shard="1").value
    on_shard0 = sum(1 for r in reqs if route(r, 2) == 0)
    assert hits0 == on_shard0
    assert hits1 == len(reqs) - on_shard0
    assert metrics.sum_counters("serve.cache_misses") == len(reqs)


def test_impossible_deadline_is_shed_not_priced():
    req = _requests(1)[0]

    async def main():
        async with ShardedGateway(n_shards=1) as gw:
            return await gw.submit(GatewayRequest(request=req,
                                                  deadline_s=1e-6))

    decision = asyncio.run(main())
    assert isinstance(decision, Decision)
    assert decision.action == "shed" and decision.reason == "deadline"


def test_lanes_and_mixed_replies():
    reqs = _requests(4)

    async def main():
        async with ShardedGateway(n_shards=2) as gw:
            fine = [GatewayRequest(request=r, lane=lane, deadline_s=60.0)
                    for r, lane in zip(reqs, ("interactive", "standard",
                                              "bulk", "interactive"))]
            doomed = GatewayRequest(request=reqs[0], lane="bulk",
                                    deadline_s=1e-9)
            replies = await gw.price_many([*fine, doomed])
            return replies, gw.core.shed

    replies, shed = asyncio.run(main())
    assert [type(r) for r in replies[:4]] == [PriceQuote] * 4
    assert isinstance(replies[4], Decision)
    assert shed == {"deadline": 1}


def test_lifecycle_is_reentrant():
    req = _requests(1)[0]

    async def main():
        gw = ShardedGateway(n_shards=1)
        await gw.start()
        await gw.start()   # idempotent
        quote = await gw.submit(GatewayRequest(request=req, deadline_s=60.0))
        await gw.close()
        assert isinstance(quote, PriceQuote)
        # A fresh start after close serves again.
        await gw.start()
        again = await gw.submit(GatewayRequest(request=req, deadline_s=60.0))
        await gw.close()
        assert again.price == quote.price
        return True

    assert asyncio.run(main())

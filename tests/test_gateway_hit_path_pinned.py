"""Pins for what the asyncio gateway's served requests and the simulator's
decision log return, independent of where a cache hit is priced.

A 2-shard :class:`ShardedGateway` with a metrics registry and a ledger
runs a fill, two full replays and a round holding one request twice; the
replies, prices, per-shard cache counters, ``kind="serve"`` ledger rows,
core tallies and each shard's decision sequence are pinned. The two
shards price concurrently, so the decision log is compared per shard
(where the drain order is FIFO and deterministic) and without wall times.

The virtual-time runs pin ``decision_log_digest`` and
``price_stream_digest`` as literals, one of them past 2**15 decisions, so
the simulator is shown to report every decision it made.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.gateway import (CostModel, GatewayRequest, LoadgenConfig,
                           ShardedGateway, capacity, open_loop_schedule,
                           route, run_closed_loop, run_schedule)
from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry
from repro.serve.batching import PricingRequest
from repro.serve.service import price_request
from repro.workloads.generators import strike_strip

LANE_CYCLE = ("interactive", "standard", "bulk")
SHARD_OF = [1, 0, 1, 0, 1, 1]   # route(book[i], 2)


def _book() -> list[PricingRequest]:
    return [PricingRequest(c, engine="mc", n_paths=600, seed=i, name=c.name)
            for i, c in enumerate(strike_strip(6))]


def _greqs(requests) -> list[GatewayRequest]:
    return [GatewayRequest(request=r, lane=LANE_CYCLE[i % 3], deadline_s=60.0)
            for i, r in enumerate(requests)]


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    book = _book()
    extra = PricingRequest(strike_strip(7)[6], engine="mc", n_paths=600,
                           seed=99, name="extra")
    metrics = MetricsRegistry()
    ledger = RunLedger(tmp_path_factory.mktemp("ledger") / "runs.jsonl")

    async def main():
        async with ShardedGateway(n_shards=2, metrics=metrics,
                                  ledger=ledger) as gw:
            fill = await gw.price_many(_greqs(book))
            replays = [await gw.price_many(_greqs(book)) for _ in range(2)]
            dup = await gw.price_many(_greqs([extra, extra]))
            return gw.core, fill, replays, dup

    core, fill, replays, dup = asyncio.run(main())
    return dict(book=book, extra=extra, metrics=metrics, ledger=ledger,
                core=core, fill=fill, replays=replays, dup=dup)


def test_replays_return_the_fill_quote_objects(served):
    for replay in served["replays"]:
        assert all(q is f for q, f in zip(replay, served["fill"]))
    first, second = served["dup"]
    assert second is first


def test_quote_bits_equal_price_request(served):
    pairs = list(zip(served["book"], served["fill"]))
    pairs.append((served["extra"], served["dup"][0]))
    for request, quote in pairs:
        want = price_request(request)
        assert quote.price.hex() == want.price.hex()
        assert quote.stderr.hex() == want.stderr.hex()


def test_route_split_is_the_one_pinned_below(served):
    assert [route(r, 2) for r in served["book"]] == SHARD_OF
    assert route(served["extra"], 2) == 1


def test_per_shard_cache_and_serve_counters(served):
    m = served["metrics"]
    # Shard 0 holds 2 book contracts, shard 1 holds 4 plus the duplicated
    # request, whose second copy hits the quote its first copy cached.
    assert m.counter("serve.cache_misses", shard="0").value == 2
    assert m.counter("serve.cache_misses", shard="1").value == 5
    assert m.counter("serve.cache_hits", shard="0").value == 4
    assert m.counter("serve.cache_hits", shard="1").value == 9
    assert m.counter("serve.requests").value == 20
    assert m.counter("serve.batches").value == 20
    assert m.counter("serve.map_calls").value == 7
    assert m.counter("serve.deduped").value == 0


def test_one_serve_row_per_served_request(served):
    rows = [r for r in served["ledger"].records() if r.kind == "serve"]
    assert len(rows) == 20
    shape = Counter((r.extra["requests"], r.extra["hits"], r.extra["misses"],
                     r.extra["map_calls"]) for r in rows)
    assert shape == {(1, 0, 1, 1): 7, (1, 1, 0, 0): 13}


def test_core_tallies(served):
    core = served["core"]
    assert core.admitted == core.completed == 20
    assert core.shed == {}


def test_decision_sequence_per_shard(served):
    log = [(d.seq, d.shard, d.lane, d.action, d.reason)
           for d in served["core"].decisions]
    assert len(log) == 40

    def round_on(shard, base, lanes, shards):
        # Every offer of a round is admitted before its shard serves any;
        # the shard then serves them in lane order, FIFO within a lane.
        mine = [(base + i, lane) for i, (lane, s)
                in enumerate(zip(lanes, shards)) if s == shard]
        order = sorted(mine, key=lambda x: LANE_CYCLE.index(x[1]))
        return ([(seq, shard, lane, "admit", "") for seq, lane in mine]
                + [(seq, shard, lane, "done", "") for seq, lane in order])

    lanes = [LANE_CYCLE[i % 3] for i in range(6)]
    for shard in (0, 1):
        want = []
        for base in (0, 6, 12):
            want += round_on(shard, base, lanes, SHARD_OF)
        want += round_on(shard, 18, LANE_CYCLE[:2], [1, 1])
        assert [d for d in log if d[1] == shard] == want
    assert [d[0::3] for d in log if d[1] == 0] == [
        (1, "admit"), (3, "admit"), (3, "done"), (1, "done"),
        (7, "admit"), (9, "admit"), (9, "done"), (7, "done"),
        (13, "admit"), (15, "admit"), (15, "done"), (13, "done")]


# -- the simulator reports its full log --------------------------------------

COST = CostModel()


def _overload(*, duration_s: float):
    base = LoadgenConfig(seed=23, duration_s=duration_s)
    cfg = LoadgenConfig(seed=23, rate=2.0 * capacity(base, COST, 4),
                        duration_s=duration_s)
    return run_schedule(open_loop_schedule(cfg), n_shards=4, cost=COST,
                        duration_s=duration_s, max_queue=32)


NO_PRICES = "e3b0c44298fc1c14"   # sha256 of the empty stream


def _check(result, *, n_decisions, decisions, prices):
    # Every offer is admitted or shed; every admit is done or expires. The
    # log starts at the first offer, not at some retained tail.
    assert len(result.decisions) == result.offered + result.admitted
    assert len(result.decisions) == n_decisions
    assert result.decisions[0].seq == 0
    assert result.decision_log_digest() == decisions
    assert result.price_stream_digest() == prices


def test_overload_digests():
    result = _overload(duration_s=4.0)
    _check(result, n_decisions=13_066, decisions="a53a25be0fd478d0",
           prices=NO_PRICES)


def test_priced_repeated_book_digests():
    cfg = LoadgenConfig(seed=11, duration_s=0.5, n_paths=400, unique=False)
    result = run_closed_loop(cfg, n_shards=2, cost=COST, n_clients=6,
                             think_s=1e-3, max_queue=16, priced=True)
    assert len(result.prices) == result.completed == 2_615
    _check(result, n_decisions=5_230, decisions="a6f1f5a7c59834a8",
           prices="62e0de357d64f8a3")


@pytest.mark.gateway
def test_long_overload_keeps_more_than_2_15_decisions():
    result = _overload(duration_s=12.0)
    assert len(result.decisions) > 1 << 15
    _check(result, n_decisions=39_168, decisions="f6f6b5ec51aea2c1",
           prices=NO_PRICES)

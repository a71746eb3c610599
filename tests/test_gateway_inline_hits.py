"""Where the asyncio gateway prices a request, and what a failure does.

A cache hit is answered on the event-loop thread; only a miss takes the
executor hop. A drain that answered a hit inline yields while a backlog
is still queued on its shard, so one shard's hits cannot starve the
others.
A request whose pricing raises fails alone: its caller gets the typed
error, the log records one terminal ``done/error``, and the shard keeps
serving.
Misses run on the gateway's own executor of ``min(n_shards, usable
CPUs)`` threads, joined by ``close``.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time

import pytest

from repro.errors import StabilityError, ValidationError
from repro.gateway import GatewayRequest, ShardedGateway, route
from repro.market import MultiAssetGBM
from repro.obs.metrics import MetricsRegistry
from repro.payoffs import BasketCall
from repro.serve.batching import PricingRequest
from repro.serve.service import PriceQuote
from repro.workloads import Workload
from repro.workloads.generators import strike_strip


def _requests(n: int) -> list[PricingRequest]:
    return [PricingRequest(c, engine="mc", n_paths=400, seed=i, name=c.name)
            for i, c in enumerate(strike_strip(n))]


def _greqs(requests) -> list[GatewayRequest]:
    return [GatewayRequest(request=r, deadline_s=60.0) for r in requests]


def test_executor_is_used_once_per_miss_and_never_for_a_hit():
    requests = _requests(6)
    cold = [*requests, requests[0]]   # the repeat is a hit by its turn
    metrics = MetricsRegistry()

    async def main():
        loop = asyncio.get_running_loop()
        real = loop.run_in_executor
        calls = []

        def spy(executor, fn, *args):
            calls.append(args)
            return real(executor, fn, *args)

        loop.run_in_executor = spy
        async with ShardedGateway(n_shards=2, metrics=metrics) as gw:
            await gw.price_many(_greqs(cold))
            n_cold = len(calls)
            replies = await gw.price_many(_greqs(cold))
        return n_cold, len(calls) - n_cold, replies

    n_cold, n_hot, replies = asyncio.run(main())
    assert n_cold == metrics.sum_counters("serve.cache_misses") == 6
    assert n_hot == 0
    assert metrics.sum_counters("serve.cache_hits") == 8
    assert all(isinstance(q, PriceQuote) for q in replies)


def test_a_backlog_of_hits_on_one_shard_does_not_hold_the_others():
    requests = _requests(24)
    on_0 = [r for r in requests if route(r, 2) == 0]
    on_1 = [r for r in requests if route(r, 2) == 1]
    assert len(on_0) >= 8 and on_1

    async def main():
        async with ShardedGateway(n_shards=2) as gw:
            await gw.price_many(_greqs([*on_0, on_1[0]]))
            mark = len(gw.core.decisions)
            await gw.price_many(_greqs([*on_0, on_1[0]]))
            return gw.core.decisions[mark:]

    log = asyncio.run(main())
    done = [d.shard for d in log if d.action == "done"]
    assert done.count(0) == len(on_0) and done.count(1) == 1
    # Shard 1's only request was offered last, behind shard 0's backlog;
    # shard 0 holds the loop for at most two hits before it is served.
    assert done.index(1) <= 2


def test_a_failing_request_raises_for_its_caller_and_the_shard_serves_on():
    good = _requests(2)
    # No BEG lattice can carry this correlation. Construction refuses
    # such a request, so the market is swapped in after admission: the
    # error surfaces only when the shard prices it.
    model = MultiAssetGBM.equicorrelated(4, 100.0, 0.25, 0.05, 0.3)
    bad = PricingRequest(Workload("basket-rho-neg", model,
                                  BasketCall([0.25] * 4, 100.0), 1.0),
                         engine="lattice", steps=4)
    object.__setattr__(bad.workload, "model", MultiAssetGBM.equicorrelated(
        4, 100.0, 0.25, 0.05, -0.3))

    async def main():
        gw = ShardedGateway(n_shards=1)
        await gw.start()
        greqs = _greqs([good[0], bad, good[1]])
        replies = await asyncio.wait_for(asyncio.gather(
            *(gw.submit(g) for g in greqs), return_exceptions=True), 30)
        await asyncio.wait_for(gw.close(), 30)
        return gw.core, replies

    core, replies = asyncio.run(main())
    assert isinstance(replies[0], PriceQuote)
    # The engine refuses it by the rule the door runs: a ValidationError
    # chained to the lattice's StabilityError.
    assert isinstance(replies[1], ValidationError)
    assert isinstance(replies[1].__cause__, StabilityError)
    assert isinstance(replies[2], PriceQuote)
    terminal = {}
    for d in core.decisions:
        if d.action != "admit":
            assert d.seq not in terminal, f"two terminal decisions: {d.seq}"
            terminal[d.seq] = (d.action, d.reason)
    assert terminal == {0: ("done", ""), 1: ("done", "error"),
                        2: ("done", "")}
    assert core.admitted == 3 and core.completed == 2


class _MissCounter:
    """Stands in for every shard's service: nothing is cached, and each
    miss records how many misses were being priced at that moment."""

    def __init__(self, barrier: threading.Barrier | None = None):
        self.cache: set = set()
        self.lock = threading.Lock()
        self.in_flight = self.peak = 0
        self.threads: set[threading.Thread] = set()
        self.barrier = barrier

    def price_many(self, requests):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.threads.add(threading.current_thread())
        if self.barrier is not None:
            self.barrier.wait()   # breaks (and fails) unless 2 run at once
        time.sleep(0.005)
        with self.lock:
            self.in_flight -= 1
        return [PriceQuote("mc", 1.0, 0.0, 0.0) for _ in requests]

    def close(self) -> None:
        pass


def _drive_misses(counter: _MissCounter, requests, n_shards: int = 2) -> None:
    assert len({route(r, n_shards) for r in requests}) == n_shards

    async def main():
        gw = ShardedGateway(n_shards=n_shards)
        gw.services = [counter] * n_shards
        async with gw:
            replies = await asyncio.wait_for(
                gw.price_many(_greqs(requests)), 30)
        assert all(isinstance(q, PriceQuote) for q in replies)

    asyncio.run(main())


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs a CPU affinity mask")
def test_pinned_to_one_cpu_one_miss_is_in_flight_and_close_joins_it():
    counter = _MissCounter()
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        _drive_misses(counter, _requests(12))
    finally:
        os.sched_setaffinity(0, allowed)
    assert counter.peak == 1
    assert counter.threads
    assert not any(t.is_alive() for t in counter.threads)


def test_one_miss_thread_per_shard_when_the_cpus_allow(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    requests = _requests(12)
    one_each = [next(r for r in requests if route(r, 2) == shard)
                for shard in (0, 1)]
    counter = _MissCounter(threading.Barrier(2, timeout=10))
    _drive_misses(counter, one_each)
    assert counter.peak == 2
    assert not any(t.is_alive() for t in counter.threads)


def test_without_an_affinity_mask_the_cpu_count_caps_the_pool(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    counter = _MissCounter()
    _drive_misses(counter, _requests(12))
    assert counter.peak == 1

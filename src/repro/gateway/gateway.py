"""ShardedGateway: the asyncio front-end over N PricingService shards.

The production-facing half of the gateway. One
:class:`~repro.gateway.core.GatewayCore` makes every decision (routing
by canonical contract hash, lane-ordered dispatch, deadline admission,
bounded queues); this class adds the concurrency shell around it: an
``async submit`` door, one worker coroutine per shard draining that
shard's queues, and per-shard :class:`~repro.serve.PricingService`
instances (serial backends, disjoint per-shard
:class:`~repro.serve.cache.PriceCache`\\ s labeled ``shard=i`` in the
shared metrics registry) doing the actual pricing.

Pricing leaves the event loop only on a cache miss. At dispatch the
worker checks the request's key (the one ``offer`` routed on) against
its shard's cache: a hit is answered by the same
``PricingService.price_many`` call, inline on the loop thread (a dict
lookup, no thread hand-off), after which the worker yields to the loop
if two or more requests are still queued on its shard, so a backlog of
hits holds the loop for at most two in a row; a miss is priced in an
executor thread while the loop keeps admitting. Either way a request
whose pricing raises gets that exception from ``submit`` (logged
``done/error``), and the shard keeps serving.

The miss executor is the gateway's own: ``start`` opens
``min(n_shards, usable CPUs)`` threads (the process's affinity mask
where the OS has one, else ``os.cpu_count()``) and ``close`` joins
them. Pricing is GIL- and CPU-bound, so a thread per shard beyond the
CPUs would only time-slice against the others and stretch every quote
in flight. With fewer threads than shards, misses from all shards share
the executor's one FIFO queue: a shard's miss waits, in submission
order, behind the other shards' misses (each drain still has at most
one miss outstanding), and that wait is counted in its service time.

The shape is the stateless-workers-plus-small-coordinator split the
INRIA grid paper motivates: shard workers hold no routing state (a
worker only ever sees requests whose canonical hash maps to it), and
the coordinator holds no prices. Overload behavior, lane semantics and
the decision log are *identical* to the virtual-time simulator — both
drive the same ``GatewayCore`` — so the deterministic overload tier
vouches for the admission logic this front-end runs on the wall clock.

Timing note: on the wall clock the dispatch-time expiry check uses the
shard's EWMA service estimate, and a request can still finish past its
deadline when the estimate lags reality; such completions are recorded
``done/late`` in the decision log rather than silently counted good.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from repro.gateway.admission import Decision, GatewayRequest
from repro.gateway.core import GatewayCore
from repro.obs.metrics import MetricsRegistry
from repro.parallel.backends import SerialBackend
from repro.serve.cache import PriceCache
from repro.serve.service import PricingService, PriceQuote
from repro.utils.validation import check_positive_int

__all__ = ["ShardedGateway"]


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has
    one, else the machine's count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class ShardedGateway:
    """Async sharded admission-controlled pricing front-end.

    Parameters mirror :class:`~repro.gateway.core.GatewayCore` (queue
    bound; the service hint starts at 50 ms) plus the per-shard cache
    capacity.
    ``metrics``/``ledger`` flow into the shard services, so ``serve.*``
    and ``gateway.*`` series land in one registry.

    Use as an async context manager::

        async with ShardedGateway(n_shards=4) as gw:
            reply = await gw.submit(GatewayRequest(request, lane="interactive",
                                                   deadline_s=2.0))

    ``submit`` resolves to a :class:`~repro.serve.service.PriceQuote` on
    success or the shed :class:`~repro.gateway.admission.Decision`, and
    raises the pricing error (e.g. a ``ValidationError``) if pricing
    failed. Cache hits are priced on the loop thread; only misses go to
    the gateway's executor, ``min(n_shards, usable CPUs)`` threads.
    """

    def __init__(self, n_shards: int = 2, *, max_queue: int = 64,
                 cache_capacity: int = 512,
                 metrics: MetricsRegistry | None = None, ledger=None):
        check_positive_int("n_shards", n_shards)
        self.n_shards = n_shards
        self.metrics = metrics
        self.core = GatewayCore(n_shards, max_queue=max_queue,
                                service_hint_s=0.05, metrics=metrics)
        self.services = [
            PricingService(SerialBackend(),
                           cache=PriceCache(cache_capacity, metrics=metrics,
                                            labels={"shard": str(i)}),
                           max_batch=1, metrics=metrics, ledger=ledger)
            for i in range(n_shards)
        ]
        self._futures: dict[int, asyncio.Future] = {}
        self._wakeups: list[asyncio.Event] = []
        self._workers: list[asyncio.Task] = []
        self._executor: ThreadPoolExecutor | None = None
        self._stopping = False

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "ShardedGateway":
        """Spawn one drain coroutine per shard and the miss executor
        (idempotent)."""
        if self._workers:
            return self
        self._stopping = False
        self._executor = ThreadPoolExecutor(
            min(self.n_shards, _usable_cpus()),
            thread_name_prefix="gateway-miss")
        self._wakeups = [asyncio.Event() for _ in range(self.n_shards)]
        self._workers = [asyncio.create_task(self._drain(shard))
                         for shard in range(self.n_shards)]
        return self

    async def close(self) -> None:
        """Finish queued work, stop the workers, join the miss executor,
        release the services."""
        self._stopping = True
        for event in self._wakeups:
            event.set()
        if self._workers:
            await asyncio.gather(*self._workers)
        self._workers = []
        if self._executor is not None:
            # Every miss was awaited by its drain: the threads are idle.
            self._executor.shutdown(wait=True)
            self._executor = None
        for svc in self.services:
            svc.close()

    async def __aenter__(self) -> "ShardedGateway":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.close()
        return False

    # -- the door -------------------------------------------------------

    @staticmethod
    def _now() -> float:
        return time.monotonic()

    async def submit(self, greq: GatewayRequest) -> PriceQuote | Decision:
        """Offer one request; await its quote or its shed decision."""
        n_decisions = len(self.core.decisions)
        pending, decision = self.core.offer(greq, self._now())
        self._resolve_new_sheds(n_decisions)
        if pending is None:
            return decision
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._futures[pending.seq] = future
        self._wakeups[pending.shard].set()
        return await future

    async def price_many(self, greqs: Sequence[GatewayRequest]) -> list:
        """Submit a whole request list concurrently; replies in order."""
        return list(await asyncio.gather(*(self.submit(g) for g in greqs)))

    # -- shard workers --------------------------------------------------

    async def _drain(self, shard: int) -> None:
        loop = asyncio.get_running_loop()
        wakeup = self._wakeups[shard]
        while True:
            n_decisions = len(self.core.decisions)
            pending = self.core.next_request(shard, self._now())
            self._resolve_new_sheds(n_decisions)
            if pending is None:
                if self._stopping:
                    return
                await wakeup.wait()
                wakeup.clear()
                continue
            t0 = self._now()
            self.core.start(shard, pending, t0,
                            self.core.service_estimate(shard))
            # Only this coroutine touches the shard's service, one request
            # at a time, so the key cannot leave the cache before the call.
            hit = pending.key in self.services[shard].cache
            future = self._futures.pop(pending.seq, None)
            try:
                if hit:
                    quote = self._price_one(shard, pending.greq.request)
                else:
                    quote = await loop.run_in_executor(
                        self._executor, self._price_one, shard,
                        pending.greq.request)
            except Exception as exc:
                # The caller gets the typed error; the shard keeps serving.
                self.core.fail(shard, pending, self._now())
                if future is not None and not future.done():
                    future.set_exception(exc)
                continue
            t1 = self._now()
            self.core.complete(shard, pending, t1, t1 - t0)
            if future is not None and not future.done():
                future.set_result(quote)
            if hit and self.core.queue_depth(shard) > 1:
                # An inline hit never suspended: let the door and the
                # other shards run before this shard's next request. A
                # lone queued request is served first (the drain suspends
                # right after it): a turn of the door in front of it cost
                # more than the hit it waits for.
                await asyncio.sleep(0)

    def _price_one(self, shard: int, request) -> PriceQuote:
        return self.services[shard].price_many([request])[0]

    def _resolve_new_sheds(self, n_before: int) -> None:
        """Resolve futures of requests the core shed since ``n_before``
        (dispatch-time expiries surface through the decision log)."""
        for decision in self.core.decisions[n_before:]:
            if decision.action != "shed":
                continue
            future = self._futures.pop(decision.seq, None)
            if future is not None and not future.done():
                future.set_result(decision)

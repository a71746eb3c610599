"""The one module of the benchmark that imports ``repro.*``.

Everything else in ``benchmarks/e2e`` talks to the program through the
names defined here, so a change to the program's public surface (ROADMAP
item 3 plans to remove ``repro.core``) is a one-file follow-up.

Three groups:

* **inputs and systems** — build requests, books and scenarios from
  plain numbers, open a gateway / service / backend, run one operation;
* **tracing wrappers** — spans around the public objects the API lets a
  caller pass or reach (``backend=``, ``service=``, ``gw.core``,
  ``gw.services``, ``service.backend``). No module global of ``src/`` is
  patched;
* **staged replays** — time one layer's public functions directly on the
  same generated inputs (``probe_*``), for the costs that sit inside a
  function the wrappers cannot see into (``request_key`` inside
  ``GatewayCore.offer`` and ``PricingService._execute``, ``plan_batches``
  inside ``_execute``, the bare kernels inside ``price_request``).
"""

from __future__ import annotations

import asyncio
import math
import os
import pickle
import statistics
import time
from contextlib import contextmanager

import numpy as np

from repro.batch.kernels import price_task
from repro.batch.plan import plan_batches
from repro.batch.strip import ContractStrip
from repro.core import ParallelMCPricer
from repro.engine.registry import default_registry
from repro.gateway import GatewayCore, GatewayRequest, ShardedGateway
from repro.gateway.router import shard_index
from repro.lattice.beg import beg_price
from repro.mc.variance_reduction import PlainMC
from repro.parallel.backends import (ProcessBackend, SerialBackend,
                                     ThreadBackend)
from repro.payoffs.rainbow import CallOnMax, SpreadCall
from repro.pde.adi2d import adi_price
from repro.risk import revalue_book, stress_scenarios, var_es
from repro.rng import Philox4x32
from repro.serve import (PriceCache, PriceQuote, PricingRequest,
                         PricingService, price_request, request_key)
from repro.verify.determinism import float_bits
from repro.workloads import (Workload, basket_workload, rainbow_workload,
                             random_portfolio, spread_workload, strike_strip)

from benchmarks.e2e.spans import ROOT, SpanRecorder

clock = time.perf_counter

# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


# The program's own names, under the names the rest of the package uses.
portfolio = random_portfolio        # (n, dim=, seed=): heterogeneous singles
gateway_request = GatewayRequest    # (request, lane, deadline_s)
key_of = request_key
reference_quote = price_request     # the serial single-request reference
value_bits = float_bits
scaling_contract = basket_workload  # (dim)
serial_backend = SerialBackend
thread_backend = ThreadBackend      # (workers); a context manager


def mc_request(contract, *, n_paths: int, seed: int, p: int = 2):
    return PricingRequest(contract, engine="mc", n_paths=n_paths, seed=seed,
                          p=p)


def lattice_request(strike: float, *, steps: int, p: int = 2):
    """Two-asset rainbow max-call on the BEG lattice."""
    base = rainbow_workload()
    contract = Workload(f"rainbow-k{strike:g}", base.model, CallOnMax(strike),
                        base.expiry)
    return PricingRequest(contract, engine="lattice", steps=steps, p=p)


def pde_request(strike: float, *, grid: int, steps: int, p: int = 2):
    """Two-asset spread call on the ADI solver."""
    base = spread_workload()
    contract = Workload(f"spread-k{strike:g}", base.model, SpreadCall(strike),
                        base.expiry)
    return PricingRequest(contract, engine="pde", grid=grid, steps=steps, p=p)


def mc_ladder(n_strikes: int, *, vol: float, n_paths: int, seed: int,
              p: int = 2) -> list:
    """One strike ladder on one shared 2-asset market: fuses to one strip."""
    return [mc_request(w, n_paths=n_paths, seed=seed, p=p)
            for w in strike_strip(n_strikes, dim=2, vol=vol)]


def lattice_ladder(n_strikes: int, *, shift: float, steps: int,
                   p: int = 2) -> list:
    return [lattice_request(float(k) + shift, steps=steps, p=p)
            for k in np.linspace(80.0, 120.0, n_strikes)]


def risk_book(n_contracts: int) -> list:
    return strike_strip(n_contracts, dim=2)


def risk_scenarios(n: int, seed: int) -> list:
    return stress_scenarios(2, n, seed=seed)


def shard_of(request, n_shards: int) -> int:
    return shard_index(request_key(request), n_shards)


def quote_bits(quote) -> tuple[str, str]:
    return float_bits(quote.price), float_bits(quote.stderr)


def is_finite_quote(reply) -> bool:
    """False for a shed ``Decision`` as well as for a NaN/inf price."""
    return isinstance(reply, PriceQuote) and math.isfinite(reply.price)


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------


def _noop(_):
    return None


@contextmanager
def process_backend(workers: int):
    """A forked pool that exists on entry (callers enter before creating
    any thread) and is gone on exit, whatever happened in between."""
    backend = ProcessBackend(workers)
    try:
        backend.map(_noop, range(workers))
        yield backend
    finally:
        backend.close()


def open_service(backend=None, *, capacity: int, max_batch: int,
                 batched: bool = False):
    """A ``PricingService`` with its own fresh cache (a context manager)."""
    return PricingService(backend, cache=PriceCache(capacity),
                          max_batch=max_batch, batched=batched)


class Gateway:
    """A started ``ShardedGateway`` on a private event loop, driven
    synchronously by the harness (one process, ``clients`` coroutines)."""

    def __init__(self, *, n_shards: int, max_queue: int, cache_capacity: int,
                 clients: int):
        self.clients = clients
        self.loop = asyncio.new_event_loop()
        self.gw = ShardedGateway(n_shards=n_shards, max_queue=max_queue,
                                 cache_capacity=cache_capacity)
        self.trace: GatewayTrace | None = None
        self._tasks: list[asyncio.Task] = []
        self.loop.run_until_complete(self.gw.start())

    def drive(self, greqs: list) -> tuple[list, list[float], float]:
        """Closed loop: each client awaits its reply before sending its
        next request. Returns replies and latencies (s) in request order
        and the wall time of the whole list."""
        n = len(greqs)
        replies: list = [None] * n
        latencies = [0.0] * n
        cursor = iter(range(n))
        trace = self.trace

        async def client():
            for i in cursor:
                if trace is None or not trace.samples(i):
                    t0 = clock()
                    replies[i] = await self.gw.submit(greqs[i])
                    latencies[i] = clock() - t0
                else:
                    root = trace.open_request(i)
                    replies[i] = await self.gw.submit(greqs[i])
                    latencies[i] = trace.close_request(root)

        # The clients are the only tasks of ours on the loop (no wrapping
        # coroutine), so close() can cancel and reap exactly these if an
        # exception in one of them ends a round early.
        self._tasks = [self.loop.create_task(client())
                       for _ in range(self.clients)]
        t0 = clock()
        self.loop.run_until_complete(asyncio.gather(*self._tasks))
        wall = clock() - t0
        self._tasks = []
        return replies, latencies, wall

    @property
    def core(self):
        return self.gw.core

    @property
    def caches(self) -> list:
        return [svc.cache for svc in self.gw.services]

    def close(self) -> None:
        """Cancel clients still in flight (abnormal exit), drain the
        shards, join the executor threads, close the loop."""
        if self.loop.is_closed():
            return
        for task in self._tasks:
            task.cancel()
        run = self.loop.run_until_complete
        if self._tasks:
            run(asyncio.gather(*self._tasks, return_exceptions=True))
        run(self.gw.close())
        run(self.loop.shutdown_default_executor())
        self.loop.close()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def revalue(book, scenarios, service, *, n_paths: int, seed: int):
    """One full-revaluation sweep through ``service``."""
    return revalue_book(book, scenarios, n_paths=n_paths, seed=seed,
                        service=service)


def mc_solve(contract, backend, *, n_paths: int, seed: int, ranks: int):
    """The paper's T(P) solve: ``ranks`` rank tasks on ``backend``."""
    pricer = ParallelMCPricer(n_paths, seed=seed, backend=backend)
    return pricer.price(contract.model, contract.payoff, contract.expiry,
                        ranks)


# ---------------------------------------------------------------------------
# Tracing wrappers
# ---------------------------------------------------------------------------


class _Proxy:
    """Forwards everything it does not override to the wrapped object."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _task_layer(task) -> str:
    if isinstance(task, ContractStrip):
        return "batch"
    if isinstance(task, PricingRequest):
        return "engine"
    return "mc"  # rank tasks of the MC engine: Technique.partial


class _TimedWorker:
    """Picklable: times one task on the worker's clock and says which
    layer's code it ran."""

    __slots__ = ("worker",)

    def __init__(self, worker):
        self.worker = worker

    def __call__(self, task):
        t0 = clock()
        result = self.worker(task)
        return result, _task_layer(task), t0, clock(), os.getpid()


def new_counts() -> dict:
    """Exact counts taken at the same boundaries as the spans."""
    return {"requests": 0, "map_calls": 0, "mapped": 0}


def serve_counts(counts: dict, hits: int) -> dict:
    """The serve layer's counts; a request that neither hit the cache nor
    reached the backend map was deduplicated inside its batch."""
    return {"serve.requests": counts["requests"],
            "serve.map_calls": counts["map_calls"],
            "serve.deduped": counts["requests"] - hits - counts["mapped"]}


class TracedBackend(_Proxy):
    """``backend.map`` as a ``parallel`` span; each task as a child span
    in the layer whose code the worker ran. Keeps the last map's tasks,
    results and per-task busy times for the pickle and balance probes."""

    def __init__(self, inner, rec: SpanRecorder, track=lambda: 0,
                 counts: dict | None = None):
        super().__init__(inner)
        self._rec = rec
        self._track = track
        self._counts = counts if counts is not None else new_counts()
        self.maps: list[dict] = []

    def map(self, worker, tasks, *, chunksize=None):
        tasks = list(tasks)
        self._counts["map_calls"] += 1
        self._counts["mapped"] += sum(
            len(t) if isinstance(t, ContractStrip) else 1 for t in tasks)
        track = self._track()
        if track is None:  # a request the trace does not sample
            return self._inner.map(worker, tasks, chunksize=chunksize)
        span = self._rec.begin("parallel", "map", track)
        try:
            outs = self._inner.map(_TimedWorker(worker), tasks,
                                   chunksize=chunksize)
        finally:
            self._rec.end(span)
        results = []
        busy = []
        for result, layer, t0, t1, pid in outs:
            self._rec.add(layer, "task", t0, t1, track, parent=span)
            busy.append((pid, t1 - t0))
            results.append(result)
        self.maps.append({"wall": span.duration, "busy": busy,
                          "tasks": tasks, "results": results})
        return results


class TracedService(_Proxy):
    """``price_many`` as a ``serve`` span (the backend's ``map`` span nests
    inside; cache calls stay part of the serve span and are timed by a
    staged replay). Pass it wherever the API takes ``service=``."""

    def __init__(self, inner, rec: SpanRecorder, track, counts: dict,
                 on_enter=None, on_exit=None):
        super().__init__(inner)
        self._rec = rec
        self._track = track
        self._counts = counts
        self._on_enter = on_enter
        self._on_exit = on_exit

    def price_many(self, requests):
        requests = list(requests)
        self._counts["requests"] += len(requests)
        track = self._track()
        if track is None:
            return self._inner.price_many(requests)
        if self._on_enter is not None:
            self._on_enter(track)
        span = self._rec.begin("serve", "price_many", track)
        try:
            return self._inner.price_many(requests)
        finally:
            self._rec.end(span)
            if self._on_exit is not None:
                self._on_exit(track, span.t1)


class ServiceTrace:
    """Installs spans on one ``PricingService`` and takes them off again,
    so traced and untraced rounds can alternate on the same object."""

    def __init__(self, service, rec: SpanRecorder, track=lambda: 0,
                 counts: dict | None = None, **hooks):
        self.service = service
        self.counts = counts if counts is not None else new_counts()
        self._raw_backend = service.backend
        self.backend = TracedBackend(service.backend, rec, track, self.counts)
        self.traced = TracedService(service, rec, track, self.counts, **hooks)

    def install(self):
        self.service.backend = self.backend
        return self.traced

    def remove(self):
        self.service.backend = self._raw_backend
        return self.service


class _TracedCore(_Proxy):
    """``offer`` as a span and ``next_request`` as the end of the queue
    wait, on the request's own track. The other two calls the asyncio
    shell makes (``start``, ``complete``: a few microseconds) are left
    inside the ``hop`` spans around the service call."""

    def __init__(self, inner, trace: "GatewayTrace"):
        super().__init__(inner)
        self._t = trace

    def offer(self, greq, now):
        t = self._t
        track = t.submitting
        if track is None:
            return self._inner.offer(greq, now)
        span = t.rec.begin("gateway", "offer", track)
        try:
            pending, decision = self._inner.offer(greq, now)
        finally:
            t.rec.end(span)
        if pending is not None:
            t.track_of_seq[pending.seq] = track
            t.mark[track] = span.t1
        return pending, decision

    def next_request(self, shard, now):
        t = self._t
        t0 = clock()
        pending = self._inner.next_request(shard, now)
        if pending is not None:
            track = t.on_shard[shard] = t.track_of_seq.pop(pending.seq, None)
            if track is not None:
                t.rec.add("queue_wait", "queue_wait", t.mark[track], t0, track)
                t.mark[track] = t0
        return pending


class GatewayTrace:
    """Per-request tracks through the asyncio gateway.

    The client names the request it is about to submit (``offer`` runs
    synchronously inside ``submit``, before the first suspension); the
    core wrapper maps the admitted sequence number to that track; a shard
    serves one request at a time, so the per-shard service and backend
    wrappers read the shard's current track. ``mark`` is where the
    request's last recorded span ended; the gap from there to the next
    boundary becomes a ``queue_wait`` or ``hop`` span, so gaps are
    recorded, not inferred. With ``every`` > 1 only each ``every``-th
    request gets a track (the exact counts still see every request): a
    cache hit costs ~200 us, and six spans on each would be the overhead
    the trace is supposed to stay under.
    """

    def __init__(self, gateway: Gateway, rec: SpanRecorder, every: int = 1):
        self.rec = rec
        self.every = every
        self.gateway = gateway
        self.counts = new_counts()
        self.submitting = -1
        self.track_of_seq: dict[int, int] = {}
        self.mark: dict[int, float] = {}
        self.on_shard: dict[int, int] = {}
        self._base = 0
        gw = gateway.gw
        self._raw_core = gw.core
        self._core = _TracedCore(gw.core, self)
        self._services = [
            ServiceTrace(svc, rec, track=lambda s=shard: self.on_shard[s],
                         counts=self.counts, on_enter=self._enter_service,
                         on_exit=self._exit_service)
            for shard, svc in enumerate(gw.services)]

    def _enter_service(self, track):
        self.rec.add("gateway", "hop", self.mark[track], clock(), track)

    def _exit_service(self, track, t1):
        self.mark[track] = t1

    def samples(self, index: int) -> bool:
        """Whether request ``index`` is traced; names it as the one about
        to be submitted either way."""
        sampled = index % self.every == 0
        self.submitting = self._base + index if sampled else None
        return sampled

    def open_request(self, index: int):
        return self.rec.begin(ROOT, "request", self.submitting)

    def close_request(self, root) -> float:
        now = clock()
        mark = self.mark.pop(root.track, None)
        if mark is not None:
            self.rec.add("gateway", "hop", mark, now, root.track, parent=root)
        self.rec.end(root)
        return root.duration

    def install(self, base_track: int) -> None:
        gw = self.gateway.gw
        self._base = base_track
        gw.core = self._core
        gw.services = [st.install() for st in self._services]
        self.gateway.trace = self

    def remove(self) -> None:
        gw = self.gateway.gw
        gw.core = self._raw_core
        gw.services = [st.remove() for st in self._services]
        self.gateway.trace = None


def decision_counts(core, since: int = 0) -> dict[str, int]:
    log = core.decisions[since:]
    return {
        "offered": sum(d.action in ("admit", "shed") and d.reason != "expired"
                       for d in log),
        "shed": sum(d.action == "shed" for d in log),
        "late": sum(d.action == "done" and d.reason == "late" for d in log),
    }


# ---------------------------------------------------------------------------
# Staged replays
# ---------------------------------------------------------------------------


def median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return statistics.median(times)


def probe_key(requests) -> float:
    """``request_key`` seconds per request."""
    requests = requests[:512]
    return median_time(lambda: [request_key(r) for r in requests]) \
        / len(requests)


def probe_cache(requests) -> tuple[float, float]:
    """``PriceCache.put`` and hit-path ``get`` seconds per call."""
    keys = [request_key(r) for r in requests[:512]]
    quote = PriceQuote("mc", 1.0, 0.0, 0.0)

    def fill():
        cache = PriceCache(len(keys))
        for key in keys:
            cache.put(key, quote)
        return cache

    put = median_time(fill) / len(keys)
    cache = fill()
    get = median_time(lambda: [cache.get(k) for k in keys]) / len(keys)
    return get, put


def probe_gateway_core(greqs, *, n_shards: int, max_queue: int):
    """``GatewayCore.offer`` and ``next_request``+``start``+``complete``
    seconds per request, on a fresh core with a fixed clock, in batches
    small enough that nothing is shed."""
    greqs = greqs[:512]
    batch = max_queue // 2

    def run():
        core = GatewayCore(n_shards, max_queue=max_queue, service_hint_s=0.05)
        offer = dispatch = 0.0
        for lo in range(0, len(greqs), batch):
            t0 = clock()
            for g in greqs[lo:lo + batch]:
                core.offer(g, 0.0)
            t1 = clock()
            for shard in range(n_shards):
                while True:
                    pending = core.next_request(shard, 0.0)
                    if pending is None:
                        break
                    core.start(shard, pending, 0.0, 0.0)
                    core.complete(shard, pending, 0.0, 1e-4)
            offer += t1 - t0
            dispatch += clock() - t1
        return offer, dispatch

    runs = [run() for _ in range(3)]
    n = len(greqs)
    return (statistics.median(r[0] for r in runs) / n,
            statistics.median(r[1] for r in runs) / n)


def probe_plan(requests) -> dict:
    """``plan_batches`` over a book's misses."""
    t0 = clock()
    plan = plan_batches(requests)
    plan_s = clock() - t0
    planned = len(plan.singles) + plan.fused_contracts
    return {"plan": plan, "plan_s": plan_s, "strips": len(plan.strips),
            "fused_share": plan.fused_contracts / planned if planned else 0.0}


def probe_strip_kernel(plan, *, sample: int = 8) -> tuple[float, float]:
    """Serial, direct ``price_task`` per strip (median seconds), and the
    fusion gain on the first strip: per-contract seconds priced singly
    (``sample`` members through ``price_request``) ÷ per-contract seconds
    fused."""
    if not plan.strips:
        return 0.0, 0.0
    times = []
    for strip in plan.strips[:4]:
        t0 = clock()
        price_task(strip)
        times.append(clock() - t0)
    first = plan.strips[0]
    members = first.to_requests()[:sample]
    t0 = clock()
    for member in members:
        price_request(member)
    single = (clock() - t0) / len(members)
    fused = times[0] / len(first)
    return statistics.median(times), single / fused


def _bare_kernel(request):
    """The numpy kernel a request bottoms out in, on the same paths/mesh,
    and its computed operation count."""
    w = request.workload
    if request.engine == "mc":
        gen = Philox4x32(request.seed)
        block = request.n_paths // request.p  # one block per rank, as priced
        return (lambda: [PlainMC().partial(w.model, w.payoff, w.expiry,
                                           block, gen)
                         for _ in range(request.p)],
                block * request.p)
    if request.engine == "lattice":
        nodes = sum((t + 1) ** w.model.dim for t in range(request.steps + 1))
        return (lambda: beg_price(w.model, w.payoff, w.expiry, request.steps),
                nodes)
    n_time = max(request.steps or request.grid // 2, 4)
    return (lambda: adi_price(w.model, w.payoff, w.expiry,
                              n_space=request.grid, n_time=n_time),
            request.grid * request.grid * n_time)


def op_count(request) -> int:
    return _bare_kernel(request)[1]


def probe_engine(request, repeats: int = 7) -> dict:
    """One request, the pricer call ``price_request`` makes and the bare
    kernel, alternating so host drift hits both alike. The pipeline
    overhead is paired: each call's wall minus the ``wall_time`` the
    engine reports for that same call."""
    spec = default_registry().get(request.engine)
    w = request.workload
    kernel, ops = _bare_kernel(request)
    price_request(request)  # lazy imports
    kernel()
    full, overhead, bare = [], [], []
    for _ in range(repeats):
        t0 = clock()
        result = spec.serve(request).price(w.model, w.payoff, w.expiry,
                                           request.p)
        t1 = clock()
        kernel()
        t2 = clock()
        full.append(t1 - t0)
        overhead.append(t1 - t0 - result.wall_time)
        bare.append(t2 - t1)
    return {"price_request_s": statistics.median(full),
            "overhead_s": statistics.median(overhead),
            "kernel_s": statistics.median(bare), "ops": ops}


def probe_pickle(tasks, results) -> dict:
    """Computed transport volume of one map: bytes and round-trip time of
    pickling its tasks and results (what the pool's pipes carry)."""
    t0 = clock()
    task_blobs = [pickle.dumps(t) for t in tasks]
    result_blobs = [pickle.dumps(r) for r in results]
    for blob in task_blobs + result_blobs:
        pickle.loads(blob)
    return {"task_bytes": sum(map(len, task_blobs)),
            "result_bytes": sum(map(len, result_blobs)),
            "pickle_s": clock() - t0}


def _burn(n: int) -> float:
    x = np.arange(n, dtype=float)
    total = 0.0
    for _ in range(8):
        total += float(np.sqrt(x * 1.0000001 + 1.0).sum())
    return total


def probe_host_speedup(backend, n: int = 1_000_000) -> float:
    """Two bare numpy loops one after the other ÷ the same two on the
    2-worker pool: what this host gives two processes, program aside."""
    backend.map(_burn, [1000, 1000])
    serial = median_time(lambda: [_burn(n), _burn(n)])
    parallel = median_time(lambda: backend.map(_burn, [n, n]))
    return serial / parallel


def _scenario_request(w, model, *, n_paths: int, seed: int):
    """The request ``revalue_book`` builds for contract ``w`` on ``model``."""
    return PricingRequest(Workload(w.name, model, w.payoff, w.expiry),
                          engine="mc", n_paths=n_paths, seed=seed, p=1,
                          name=w.name)


def probe_risk(book, scenarios, *, n_paths: int, seed: int, pnl) -> dict:
    """The risk layer's own steps, per scenario x contract."""
    pairs = len(book) * len(scenarios)
    t0 = clock()
    models = [[s.apply(w.model) for w in book] for s in scenarios]
    apply_s = (clock() - t0) / pairs
    t0 = clock()
    for row in models:
        for w, model in zip(book, row):
            _scenario_request(w, model, n_paths=n_paths, seed=seed)
    build_s = (clock() - t0) / pairs
    var_s = median_time(lambda: [var_es(pnl, level)
                                  for level in (0.95, 0.99)])
    return {"apply_s": apply_s, "build_s": build_s, "var_es_s": var_s}


def scenario_reference(book, scenario, *, n_paths: int, seed: int) -> str:
    """Bits of one scenario's book value from serial ``price_request``
    calls, summed in book order as ``revalue_book`` sums them."""
    quotes = [price_request(_scenario_request(
        w, scenario.apply(w.model), n_paths=n_paths, seed=seed))
        for w in book]
    return float_bits(float(sum(q.price for q in quotes)))

"""The batch pricing service: cache → batch → chunked map → quotes.

The throughput layer. :meth:`PricingService.price_many` takes a list of
:class:`~repro.serve.batching.PricingRequest`\\ s, cuts it into
``max_batch``-sized batches, keys each batch with one
:func:`~repro.serve.batching.request_keys` call (each market and payoff
value is encoded once, through a bounded memo), answers what it can from a
:class:`~repro.serve.cache.PriceCache`, and always hands a batch's deduped
misses to :func:`~repro.batch.plan.plan_batches`: misses sharing a market
model, expiry, engine and settings fuse into one
:class:`~repro.batch.strip.ContractStrip`, the rest stay single requests.
The plan runs in one ``backend.map`` (count-based chunks for a uniform
plan, costliest-first and unchunked for a heterogeneous one) over the
module-level :func:`~repro.batch.kernels.price_task` worker (a request
prices through :func:`price_request`, a fused strip through
:func:`~repro.batch.kernels.price_strip`).

The layer adds *no* numerics of its own, which is what makes it safe:

* every request prices through the existing parallel pricers with its own
  seed/settings and a strip reproduces its members' single-run bits, so a
  quote's price and stderr are a pure function of the request config —
  **independent of batch composition, chunk size, backend and cache
  state** (the ``serve-batching`` and ``strip-batching`` determinism
  checks); ``sim_time`` alone describes the (possibly fused) run;
* duplicate requests inside one batch are priced once and fanned out;
* a batch with zero misses performs **zero** backend map calls — a 100 %
  cache-hit replay never touches the execution layer.

Throughput accounting goes through :class:`~repro.obs.MetricsRegistry`
(``serve.requests``, ``serve.batches``, ``serve.map_calls``,
``serve.cache_hits`` / ``serve.cache_misses`` counters and the
``serve.batch_size`` / ``serve.batch_latency_s`` histograms) so the
``repro serve`` CLI and benchmark F15 read the same numbers.

:func:`revalue_scenarios` is the second batch shape: many payoffs revalued
against **one** precomputed scenario matrix (the Premia-style risk job).
The matrix is the natural shared-memory payload — with
``ProcessBackend(shm_min_bytes=...)`` it crosses to the pool once as a
segment instead of being pickled per task.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.obs.ledger import (
    RunRecord,
    active_ledger,
    config_digest,
    git_sha,
    new_run_id,
)
from repro.obs.metrics import BoundSeries
from repro.parallel.backends import ChunkAutotuner, ExecutionBackend, SerialBackend
from repro.parallel.sched import LPTScheduler, resolve_scheduler
from repro.serve.batching import PricingRequest, request_keys
from repro.serve.cache import PriceCache
from repro.utils.validation import check_positive_int

__all__ = ["PriceQuote", "PricingService", "price_request",
           "revalue_scenarios"]


@dataclass(frozen=True, slots=True)
class PriceQuote:
    """A served price: what the cache stores and the service returns.

    Deliberately carries no request label — two equivalent requests share
    one quote — and only plain floats, so bitwise identity between a hit
    and a recomputed miss is meaningful and picklable. Slotted: a caller
    that keeps every quote of a book retains one of these per contract,
    and the per-instance ``__dict__`` was most of it.
    """

    engine: str
    price: float
    stderr: float
    sim_time: float


def price_request(request: PricingRequest) -> PriceQuote:
    """Module-level batch worker: price one request with its engine family.

    Picklable (the process backend ships it through the pool). The engine
    is resolved by canonical name through the
    :class:`~repro.engine.registry.EngineRegistry`, whose serve hooks
    import the pricers lazily — the serve package never creates an import
    cycle with :mod:`repro.engine`.
    """
    from repro.engine.registry import default_registry

    w = request.workload
    spec = default_registry().get(request.engine)
    if spec.serve is None:  # unreachable via PricingRequest validation
        raise ValidationError(f"engine {request.engine!r} is not servable")
    pricer = spec.serve(request)
    res = pricer.price(w.model, w.payoff, w.expiry, request.p)
    return PriceQuote(engine=request.engine, price=res.price,
                      stderr=res.stderr, sim_time=res.sim_time)


class PricingService:
    """Request lists in, quotes out — batched, fused and cached.

    :meth:`price_many` is the one entry point.

    Parameters
    ----------
    backend : an :class:`~repro.parallel.backends.ExecutionBackend`
        (default: a private :class:`SerialBackend`). The caller owns the
        backend's lifecycle unless the service created it.
    cache : a :class:`PriceCache`, or ``None`` to disable caching.
    max_batch : requests per batch; :meth:`price_many` executes its input
        in consecutive slices of this many.
    chunksize : per-map chunking of a uniform plan — ``"auto"`` (default)
        lets a :class:`ChunkAutotuner` pick from observed per-task
        latency, an int fixes it, ``None`` maps one task per dispatch. A
        heterogeneous plan on a multi-worker backend is not chunked at
        all (see :meth:`_dispatch`).
    min_strip : smallest group of misses on one market worth fusing into a
        :class:`~repro.batch.strip.ContractStrip` (one backend task, shared
        path generation, single-run price/stderr bits); a positive int.
    metrics : optional :class:`~repro.obs.MetricsRegistry`. Also attached
        to the backend (when the backend has none of its own) so the
        per-task ``task_latency{backend=...}`` histogram fills — the
        source the autotuner's straggler feedback reads.
    ledger : optional :class:`~repro.obs.RunLedger`; defaults to the
        ambient ledger (``$REPRO_LEDGER``). Each executed batch appends
        one ``kind="serve"`` record.
    batched : accepted and ignored (every batch's misses are planned).
    """

    def __init__(self, backend: ExecutionBackend | None = None, *,
                 cache: PriceCache | None = None, max_batch: int = 32,
                 chunksize: int | str | None = "auto",
                 batched: bool = False, min_strip: int = 2,
                 metrics=None, ledger=None):
        self._owns_backend = backend is None
        self.backend = backend if backend is not None else SerialBackend()
        self.cache = cache
        self.metrics = metrics
        self.ledger = ledger
        self.max_batch = check_positive_int("max_batch", max_batch)
        self.chunksize = chunksize
        self.min_strip = check_positive_int("min_strip", min_strip)
        if cache is not None and metrics is not None and cache.metrics is None:
            cache.metrics = metrics
        if metrics is not None and getattr(self.backend, "metrics", None) is None:
            # Feed task_latency{backend=...} — the autotuner's obs source.
            self.backend.metrics = metrics
        workers = getattr(self.backend, "max_workers", 1)
        self._autotuner = (ChunkAutotuner(workers)
                           if chunksize == "auto" else None)
        # ``batched`` selects nothing: accepted because benchmarks/e2e/adapters
        # .open_service passes it (a [benchmark] PR's edit — ROADMAP item
        # 1(a)). The digest keeps it as given, and ``max_wait_s`` and
        # ``scheduler`` as literal Nones, so recorded ledger ``config``s
        # replay; all three keys leave in item 1(b)'s single re-pin.
        self._config_digest = config_digest({
            "max_batch": max_batch, "max_wait_s": None,
            "chunksize": chunksize, "batched": bool(batched),
            "min_strip": min_strip, "scheduler": None,
        })
        #: Number of batches executed (``serve.batches`` counts the same).
        self.batches = 0
        #: Number of backend.map calls issued — zero for full-hit replays.
        self.map_calls = 0

    @property
    def metrics(self):
        return None if self._m is None else self._m.registry

    @metrics.setter
    def metrics(self, metrics) -> None:
        self._m = self._task_m = None
        if metrics is not None:
            self._m = BoundSeries(metrics)
            self._task_m = BoundSeries(metrics, backend=self.backend.name)

    def _dispatch(self, worker, work, fused):
        """One map over a plan's tasks; returns (results, sched stats).

        A heterogeneous plan (it holds a strip — ``fused`` — or its cost
        estimates differ) on a multi-worker backend goes out
        costliest-first (LPT), one task per message, so a fat strip is
        never welded to anything and the pool's free worker always takes
        the largest task left. Anything else keeps static count-based
        chunks: there is nothing to order, and chunking amortizes the
        per-message cost of many small tasks.
        """
        from repro.batch.plan import task_cost

        self.map_calls += 1
        scheduler = None
        costs = None
        if len(work) > 1 and (getattr(self.backend, "max_workers", 1) or 1) > 1:
            costs = [task_cost(task) for task in work]
            if fused or len(set(costs)) > 1:
                scheduler = LPTScheduler()
        cs = (self._autotuner.chunksize(len(work))
              if self._autotuner is not None else self.chunksize)
        return resolve_scheduler(scheduler).map(self.backend, worker, work,
                                                costs=costs, chunksize=cs)

    def price_many(self, requests: Iterable[PricingRequest]) -> list[PriceQuote]:
        """Price a request list; quotes in input order.

        The list executes in consecutive ``max_batch``-sized slices, one
        batch each (cache front, dedup, plan, one backend map, one ledger
        record). Anything that is not a :class:`PricingRequest` is
        refused with :class:`ValidationError` before any batch runs.
        """
        requests = list(requests)
        for request in requests:
            if not isinstance(request, PricingRequest):
                raise ValidationError(
                    f"expected a PricingRequest, got {type(request).__name__}")
        step = self.max_batch
        quotes: list[PriceQuote] = []
        for lo in range(0, len(requests), step):
            quotes.extend(self._execute(requests[lo:lo + step]))
        return quotes

    # -- batch execution -----------------------------------------------

    def _execute(self, batch: list[PricingRequest]) -> list[PriceQuote]:
        t0 = time.perf_counter()
        self.batches += 1
        n = len(batch)
        keys = request_keys(batch)
        quotes: list[PriceQuote | None] = [None] * n

        # Cache front: hits are answered immediately; misses are deduped
        # by key so one computation fans out to every equivalent request.
        miss_indices: dict[str, list[int]] = {}
        for i, key in enumerate(keys):
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is not None:
                quotes[i] = hit
            else:
                miss_indices.setdefault(key, []).append(i)

        tasks = [batch[idx[0]] for idx in miss_indices.values()]
        sched_stats = None
        if tasks:
            from repro.batch.kernels import price_task
            from repro.batch.plan import plan_batches

            # Whatever fuses, the batch is one backend.map over price_task.
            plan = plan_batches(tasks, min_strip=self.min_strip)
            work = plan.tasks()
            results, sched_stats = self._dispatch(price_task, work,
                                                  bool(plan.strips))
            # The plan regroups the task objects themselves, so identity
            # leads each miss key's task to its quote.
            quote_of = {id(r): quote
                        for strip, result in zip(plan.strips, results)
                        for r, quote in zip(strip.requests, result)}
            quote_of.update((id(r), quote) for r, quote in zip(
                plan.singles, results[len(plan.strips):]))
            for (key, indices), task in zip(miss_indices.items(), tasks):
                quote = quote_of[id(task)]
                for i in indices:
                    quotes[i] = quote
                if self.cache is not None:
                    self.cache.put(key, quote)
            if self._m is not None and plan.strips:
                self._m["counter", "serve.strips"].inc(len(plan.strips))
                for s in plan.strips:
                    self._m["histogram", "serve.strip_contracts"].observe(len(s))

        wall = time.perf_counter() - t0
        if tasks and self._autotuner is not None:
            self._autotuner.observe(len(work), wall)
            if self._task_m is not None:
                # The obs → autotuner loop: fold the observed per-task
                # latency dispersion (p99/p50) into future chunk sizes.
                self._autotuner.observe_histogram(
                    self._task_m["histogram", "task_latency"])
        if self._m is not None:
            self._m["counter", "serve.requests"].inc(n)
            self._m["counter", "serve.batches"].inc()
            if tasks:
                self._m["counter", "serve.map_calls"].inc()
            self._m["counter", "serve.deduped"].inc(
                sum(len(v) - 1 for v in miss_indices.values()))
            self._m["histogram", "serve.batch_size"].observe(n)
            self._m["histogram", "serve.batch_latency_s"].observe(wall)
        ledger = self.ledger if self.ledger is not None else active_ledger()
        if ledger is not None:
            extra = {"requests": n, "misses": len(tasks),
                     "hits": n - sum(len(v) for v in miss_indices.values()),
                     "map_calls": 1 if tasks else 0}
            if sched_stats is not None:
                extra["sched"] = sched_stats.ledger_extra()
            ledger.append(RunRecord(
                run_id=new_run_id(), kind="serve", engine="service",
                config=self._config_digest, backend=self.backend.name,
                workers=int(getattr(self.backend, "max_workers", 1) or 1),
                p=len(tasks), stages={"batch": wall}, wall_s=wall,
                extra=extra,
                git=git_sha()))
        return quotes

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release an internally created backend."""
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "PricingService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


# ---------------------------------------------------------------------------
# Scenario revaluation: the shared-memory batch shape.
# ---------------------------------------------------------------------------


def _revalue_task(task) -> float:
    """Mean payoff of one contract over a scenario matrix."""
    payoff, scenarios = task
    return float(np.mean(payoff.terminal(scenarios)))


def revalue_scenarios(payoffs: Sequence, scenarios: np.ndarray, *,
                      backend: ExecutionBackend | None = None,
                      chunksize: int | str | None = "auto") -> list[float]:
    """Value many payoffs against one precomputed terminal-scenario matrix.

    The classic risk-management batch: simulate the market once (rows of
    ``scenarios``: one terminal price vector per scenario), then revalue
    the whole book against it. Every task carries the same matrix object,
    so a :class:`~repro.parallel.backends.ProcessBackend` with
    ``shm_min_bytes`` set ships it across the pool **once** through a
    shared-memory segment — benchmark F15 measures that against the
    per-task-pickle baseline. Values are undiscounted scenario means.
    """
    if scenarios.ndim != 2:
        raise ValidationError(
            f"scenarios must be (n_scenarios, dim), got shape {scenarios.shape}"
        )
    own = backend is None
    backend = backend if backend is not None else SerialBackend()
    try:
        tasks = [(p, scenarios) for p in payoffs]
        return backend.map(_revalue_task, tasks, chunksize=chunksize)
    finally:
        if own:
            backend.close()

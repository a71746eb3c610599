"""The batch pricing service: cache → batch → chunked map → quotes.

The throughput layer. A :class:`PricingService` accepts a stream of
:class:`~repro.serve.batching.PricingRequest`\\ s, groups them into
size/deadline-bounded batches, answers what it can from a
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
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.obs.ledger import (
    RunRecord,
    active_ledger,
    config_digest,
    git_sha,
    new_run_id,
)
from repro.parallel.backends import ChunkAutotuner, ExecutionBackend, SerialBackend
from repro.parallel.sched import LPTScheduler, resolve_scheduler
from repro.serve.batching import Batch, Batcher, PricingRequest, request_key
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
    """Streams of pricing requests in, quotes out — grouped, fused and cached.

    Parameters
    ----------
    backend : an :class:`~repro.parallel.backends.ExecutionBackend`
        (default: a private :class:`SerialBackend`). The caller owns the
        backend's lifecycle unless the service created it.
    cache : a :class:`PriceCache`, or ``None`` to disable caching.
    max_batch : cut a batch as soon as this many requests are pending.
    max_wait_s : cut a batch once its oldest request has waited this long
        (checked on :meth:`submit` and :meth:`poll`); ``None`` disables
        the deadline.
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
    clock : injectable monotonic clock for deadline tests.
    scheduler : optional :class:`~repro.parallel.sched.Scheduler` or
        strategy name deciding how each batch's miss tasks meet the
        backend's workers (``None`` = chunks for a uniform plan,
        costliest-first for a heterogeneous one).
        Placement only — quotes are bitwise scheduler-invariant; steal
        tallies land in the batch's ``kind="serve"`` ledger record.
    """

    def __init__(self, backend: ExecutionBackend | None = None, *,
                 cache: PriceCache | None = None, max_batch: int = 32,
                 max_wait_s: float | None = None,
                 chunksize: int | str | None = "auto",
                 batched: bool = False, min_strip: int = 2,
                 metrics=None, ledger=None,
                 clock: Callable[[], float] | None = None,
                 scheduler=None):
        self._owns_backend = backend is None
        self.backend = backend if backend is not None else SerialBackend()
        self.cache = cache
        self.metrics = metrics
        self.ledger = ledger
        self.chunksize = chunksize
        self.min_strip = check_positive_int("min_strip", min_strip)
        # None keeps meaning "choose from the plan" (see _dispatch).
        self.scheduler = (None if scheduler is None
                          else resolve_scheduler(scheduler))
        if cache is not None and metrics is not None and cache.metrics is None:
            cache.metrics = metrics
        if metrics is not None and getattr(self.backend, "metrics", None) is None:
            # Feed task_latency{backend=...} — the autotuner's obs source.
            self.backend.metrics = metrics
        workers = getattr(self.backend, "max_workers", 1)
        self._autotuner = (ChunkAutotuner(workers)
                           if chunksize == "auto" else None)
        self._batcher = Batcher(max_batch=max_batch, max_wait_s=max_wait_s,
                                clock=clock)
        self._completed: list[tuple[PricingRequest, PriceQuote]] = []
        # ``batched`` selects nothing: accepted because benchmarks/e2e/adapters
        # .open_service passes it (a [benchmark] PR's edit — ROADMAP item 9),
        # digested as given so recorded ledger ``config``s replay until then.
        self._config_digest = config_digest({
            "max_batch": max_batch, "max_wait_s": max_wait_s,
            "chunksize": chunksize, "batched": bool(batched),
            "min_strip": min_strip,
            "scheduler": getattr(self.scheduler, "name", None),
        })
        #: Number of backend.map calls issued — zero for full-hit replays.
        self.map_calls = 0

    def _dispatch(self, worker, work, fused):
        """One map over a plan's tasks; returns (results, sched stats).

        A heterogeneous plan (it holds a strip — ``fused`` — or its cost
        estimates differ) on a multi-worker backend goes out
        costliest-first, one task per message, so a fat strip is never
        welded to anything and the pool's free worker always takes the
        largest task left. A uniform plan keeps count-based chunks: there
        is nothing to order, and chunking amortizes the per-message cost
        of many small tasks.
        """
        from repro.batch.plan import task_cost

        self.map_calls += 1
        scheduler = self.scheduler
        costs = None
        if len(work) > 1 and (getattr(self.backend, "max_workers", 1) or 1) > 1:
            costs = [task_cost(task) for task in work]
            if scheduler is None and (fused or len(set(costs)) > 1):
                scheduler = LPTScheduler()
        cs = (self._autotuner.chunksize(len(work))
              if self._autotuner is not None else self.chunksize)
        return resolve_scheduler(scheduler).map(self.backend, worker, work,
                                                costs=costs, chunksize=cs)

    # -- streaming interface -------------------------------------------

    def submit(self, request: PricingRequest) -> None:
        """Queue one request; executes a batch when size/deadline trips."""
        batch = self._batcher.poll()
        if batch is not None:
            self._completed.extend(self._execute(batch))
        batch = self._batcher.submit(request)
        if batch is not None:
            self._completed.extend(self._execute(batch))

    def poll(self) -> None:
        """Deadline check — call between submits on a sparse stream."""
        batch = self._batcher.poll()
        if batch is not None:
            self._completed.extend(self._execute(batch))

    def flush(self) -> list[tuple[PricingRequest, PriceQuote]]:
        """Execute any pending partial batch and drain all results."""
        batch = self._batcher.flush()
        if batch is not None:
            self._completed.extend(self._execute(batch))
        return self.drain()

    def drain(self) -> list[tuple[PricingRequest, PriceQuote]]:
        """Completed (request, quote) pairs in submission order."""
        out = self._completed
        self._completed = []
        return out

    def price_many(self, requests: Iterable[PricingRequest]) -> list[PriceQuote]:
        """Convenience: run a whole request list; quotes in input order."""
        for request in requests:
            self.submit(request)
        return [quote for _, quote in self.flush()]

    # -- batch execution -----------------------------------------------

    def _execute(self, batch: Batch) -> list[tuple[PricingRequest, PriceQuote]]:
        t0 = time.perf_counter()
        n = len(batch)
        keys = [request_key(r) for r in batch.requests]
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

        tasks = [batch.requests[idx[0]] for idx in miss_indices.values()]
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
            if self.metrics is not None and plan.strips:
                self.metrics.counter("serve.strips").inc(len(plan.strips))
                for s in plan.strips:
                    self.metrics.histogram(
                        "serve.strip_contracts").observe(len(s))

        wall = time.perf_counter() - t0
        if tasks and self._autotuner is not None:
            self._autotuner.observe(len(work), wall)
            if self.metrics is not None:
                # The obs → autotuner loop: fold the observed per-task
                # latency dispersion (p99/p50) into future chunk sizes.
                self._autotuner.observe_histogram(self.metrics.histogram(
                    "task_latency", backend=self.backend.name))
        if self.metrics is not None:
            self.metrics.counter("serve.requests").inc(n)
            self.metrics.counter("serve.batches").inc()
            if tasks:
                self.metrics.counter("serve.map_calls").inc()
            self.metrics.counter("serve.deduped").inc(
                sum(len(v) - 1 for v in miss_indices.values()))
            self.metrics.histogram("serve.batch_size").observe(n)
            self.metrics.histogram("serve.batch_latency_s").observe(wall)
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
        return list(zip(batch.requests, quotes))

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Flush pending work and release an internally created backend."""
        self.flush()
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
    """Discounted mean payoff of one contract over a scenario matrix."""
    payoff, scenarios, discount = task
    if np.ndim(discount) == 0:
        return float(discount) * float(np.mean(payoff.terminal(scenarios)))
    return float(np.mean(np.asarray(discount, dtype=float)
                         * payoff.terminal(scenarios)))


def revalue_scenarios(payoffs: Sequence, scenarios: np.ndarray, *,
                      backend: ExecutionBackend | None = None,
                      chunksize: int | str | None = "auto",
                      discount=1.0) -> list[float]:
    """Value many payoffs against one precomputed terminal-scenario matrix.

    The classic risk-management batch: simulate the market once (rows of
    ``scenarios``: one terminal price vector per scenario), then revalue
    the whole book against it. Every task carries the same matrix object,
    so a :class:`~repro.parallel.backends.ProcessBackend` with
    ``shm_min_bytes`` set ships it across the pool **once** through a
    shared-memory segment — benchmark F15 measures that against the
    per-task-pickle baseline.

    ``discount`` is a scalar applied uniformly, or a length-``n_scenarios``
    vector applying a per-scenario discount factor (rate-shocked scenario
    sets discount each row at its own rate).
    """
    if scenarios.ndim != 2:
        raise ValidationError(
            f"scenarios must be (n_scenarios, dim), got shape {scenarios.shape}"
        )
    discount = np.asarray(discount, dtype=float)
    if discount.ndim == 0:
        discount = float(discount)
    elif discount.ndim != 1 or discount.shape[0] != scenarios.shape[0]:
        raise ValidationError(
            f"discount must be scalar or length {scenarios.shape[0]} "
            f"(one per scenario), got shape {discount.shape}")
    own = backend is None
    backend = backend if backend is not None else SerialBackend()
    try:
        tasks = [(p, scenarios, discount) for p in payoffs]
        return backend.map(_revalue_task, tasks, chunksize=chunksize)
    finally:
        if own:
            backend.close()

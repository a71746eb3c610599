"""The shared pipeline runner: one place for every cross-cutting concern.

Every job — a single contract or a fused strip — takes one route, the
private :func:`_run`, which applies the cross-cutting concerns **once**,
as a fixed middleware order around the engine's stages:

1. ``plan`` / ``partition`` (engine) — validation and work splitting;
2. **cluster middleware** — one :class:`SimulatedCluster` per run, built
   with the config's machine spec, fault plan and tracer;
3. **execution middleware** — mapped engines go through
   :func:`~repro.parallel.faults.resilient_map` when a non-empty fault
   plan is configured (plain chunked ``backend.map`` otherwise); inline
   engines run their loops and then pass through
   :func:`~repro.parallel.faults.simulate_recovery`. A config-attached
   :class:`~repro.parallel.sched.Scheduler` (``pricer.scheduler =
   "steal"``) re-places mapped tasks across workers — LPT over the
   engine's ``task_costs`` estimates, or work stealing — without moving a
   price bit; scheduling stats land in engine metrics and the ledger
   record's ``extra["sched"]``. Either way the wall clock is measured by
   one shared :class:`~repro.perf.timer.Timer`;
4. ``account`` / ``reduce`` (engine) — simulated cost charging and the
   reduction, which travels the modeled machine's schedule;
5. **report middleware** — the runner assembles one
   :class:`~repro.engine.result.ParallelRunResult` per payoff from the
   cluster report (timing and communication columns describe the whole
   run and are shared by a strip's members), attaches the recorded
   cluster when asked, feeds the optional
   :class:`~repro.obs.metrics.MetricsRegistry`, and appends one
   :class:`~repro.obs.ledger.RunRecord` (per-stage wall timings, fault
   tallies, ``run_id``) to the configured or ambient run ledger.

:func:`run_engine` / :func:`run_pipeline` (one payoff; ledger kind
``"engine"``) and :func:`run_strip` (a payoff sequence; ledger kind
``"strip"``, ``meta["strip"]`` on every result) are few-line entry points
over :func:`_run`.

Observability attachments follow one idiom — plain attribute assignment
on the engine config: ``pricer.tracer = Tracer()``,
``pricer.ledger = RunLedger(path)``, ``pricer.profiler =
SamplingProfiler()``. Each costs a single ``getattr`` when absent. When a
ledger or tracer is active the runner mints a ``run_id`` and threads it
into :func:`~repro.parallel.faults.resilient_map`, so fault/retry trace
instants, the :class:`~repro.parallel.faults.RunReport` and the ledger
row all correlate.

Because the middleware only *wraps* the engine's arithmetic (it never
reorders it), and the fused kernels share only the *inputs* of each
contract's arithmetic, a strip member's price is bitwise equal to the
same contract priced alone — the property the verification subsystem's
golden masters, the strip-equivalence tier and the determinism checks
gate on.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import (
    Any,
    Callable,
    ContextManager,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.pipeline import (
    Estimate,
    PipelineContext,
    PipelineEngine,
    PricingJob,
    RankTask,
)
from repro.engine.result import ParallelRunResult
from repro.errors import ValidationError
from repro.obs.ledger import active_ledger, new_run_id, record_from_result
from repro.parallel.backends import SerialBackend
from repro.parallel.faults import FaultPolicy, resilient_map, simulate_recovery
from repro.parallel.sched import Scheduler, resolve_scheduler
from repro.parallel.simcluster import SimulatedCluster
from repro.perf.timer import Timer

__all__ = ["run_pipeline", "run_engine", "run_strip"]


def _ledger_for(cfg: Any) -> Any:
    """The run ledger for a config: explicit attribute wins, else ambient."""
    ledger = getattr(cfg, "ledger", None)
    if ledger is None:
        ledger = active_ledger()
    return ledger


def _profile_ctx(cfg: Any, label: str) -> ContextManager[Any]:
    """The execute-stage profiler context (no-op unless one is attached)."""
    profiler = getattr(cfg, "profiler", None)
    if profiler is None:
        return nullcontext()
    ctx: ContextManager[Any] = profiler.profile(label)
    return ctx


class _StageTimer:
    """One wall-clock timer feeding the ledger's per-stage ``stages{}``.

    ``with timer.stage("plan"): ...``; re-entering a name accumulates, so
    a split stage still reports one number.
    """

    def __init__(self) -> None:
        self.stages: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.stages[name] = self.stages.get(name, 0.0) + dt


def _scheduler_for(cfg: Any, engine: PipelineEngine,
                   tasks: Optional[Sequence[RankTask]]) -> Optional[Scheduler]:
    """Resolve the config's execute-stage scheduler, gated by capability.

    ``cfg.scheduler`` follows the obs attachment idiom (plain attribute
    assignment; absent means the historical static path, bitwise). A
    non-static strategy requires a mapped engine that declares
    ``schedulable`` — inline engines run their own loops and have nothing
    to steal, and non-schedulable mapped engines have order-dependent
    reassembly the scheduler must not touch.
    """
    value = getattr(cfg, "scheduler", None)
    if value is None:
        return None
    scheduler = resolve_scheduler(value)
    if scheduler.name == "static":
        return scheduler
    if tasks is None:
        raise ValidationError(
            f"engine {engine.name!r} runs inline; only the 'static' "
            f"scheduler applies (got {scheduler.name!r})"
        )
    if not engine.schedulable:
        raise ValidationError(
            f"engine {engine.name!r} is not schedulable; see "
            f"EngineCapabilities.schedulable"
        )
    return scheduler


def _mapped_execute(
    cfg: Any,
    worker: Callable[[Any], Any],
    payloads: List[Any],
    *,
    faults: Any,
    policy: FaultPolicy,
    run_id: Optional[str],
    scheduler: Optional[Scheduler],
    costs: Optional[Sequence[float]],
) -> Tuple[list, Optional[Any], Optional[Any]]:
    """The mapped-engine execute stage.

    Returns ``(state, fault_report, sched_stats)``. With neither faults
    nor a scheduler configured this is the historical fault-free fast
    path — one ``backend.map``, one branch of overhead (benchmark F13).
    """
    backend = getattr(cfg, "backend", None)
    if backend is None:
        backend = SerialBackend()
    chunksize = getattr(cfg, "chunksize", None)
    inject = faults is not None and not faults.is_empty
    if inject:
        state, fault_report = resilient_map(
            backend, worker, payloads,
            plan=faults, policy=policy, chunksize=chunksize,
            run_id=run_id, scheduler=scheduler, costs=costs,
        )
        return state, fault_report, fault_report.sched
    if scheduler is None:
        return backend.map(worker, payloads, chunksize=chunksize), None, None
    state, sched_stats = scheduler.map(backend, worker, payloads,
                                       costs=costs, chunksize=chunksize)
    return state, None, sched_stats


def _observe_sched(cfg: Any, engine: PipelineEngine, sched_stats: Any,
                   extra: Optional[dict]) -> Optional[dict]:
    """Fold scheduling stats into engine metrics and the ledger extra."""
    if sched_stats is None:
        return extra
    metrics = getattr(cfg, "metrics", None)
    if metrics is not None:
        metrics.counter("sched.steals", engine=engine.name).inc(
            sched_stats.steals)
        metrics.counter("sched.tasks_moved", engine=engine.name).inc(
            sched_stats.tasks_moved)
    merged = dict(extra) if extra else {}
    merged["sched"] = sched_stats.ledger_extra()
    return merged


def _run(engine: PipelineEngine, job: PricingJob,
         kind: str) -> Tuple[List[ParallelRunResult], List[Estimate]]:
    """Drive one engine through the five stages; one result per payoff.

    ``kind`` is the ledger record kind — ``"engine"`` for the one-payoff
    entry points, ``"strip"`` for :func:`run_strip`, whose results also
    carry ``meta["strip"]`` and feed the ``engine.strip_*`` metrics.
    """
    if len(job.payoffs) > 1 and not engine.batchable:
        raise ValidationError(
            f"engine {engine.name!r} is not batchable; see "
            f"EngineCapabilities.batchable"
        )
    strip = kind == "strip"
    cfg = engine.config
    ledger = _ledger_for(cfg)
    timer = _StageTimer()
    stages = timer.stages

    with timer.stage("plan"):
        plan = engine.plan(job)
    with timer.stage("partition"):
        tasks = engine.partition(plan)

    faults = getattr(cfg, "faults", None)
    policy: FaultPolicy = getattr(cfg, "policy", None) or FaultPolicy.parse(None)
    tracer = getattr(cfg, "tracer", None)
    record = bool(getattr(cfg, "record", False))
    run_id = new_run_id() if (ledger is not None or tracer is not None) else None
    scheduler = _scheduler_for(cfg, engine, tasks)
    cluster = SimulatedCluster(plan.p, cfg.spec, record=record,
                               faults=faults, tracer=tracer)
    ctx = PipelineContext(cluster=cluster, tracer=tracer, timer=Timer())
    sched_stats: Optional[Any] = None

    if tasks is not None:
        # Mapped engine: scheduler + fault + chunking middleware around
        # the backend map.
        assert engine.worker is not None, f"{engine.name} engine has no worker"
        costs = engine.task_costs(plan) if scheduler is not None else None
        with ctx.timer, _profile_ctx(cfg, f"{engine.name}.execute"):
            state, fault_report, sched_stats = _mapped_execute(
                cfg, engine.worker, [task.payload for task in tasks],
                faults=faults, policy=policy, run_id=run_id,
                scheduler=scheduler, costs=costs,
            )
        engine.account(plan, ctx, fault_report)
    else:
        # Inline engine: the arithmetic is the sequential reference, so
        # faults stretch the simulated timeline only (recovery is charged
        # after the compute loops, and rank loss raises).
        with ctx.timer, _profile_ctx(cfg, f"{engine.name}.execute"):
            state = engine.execute(plan, ctx)
        fault_report = simulate_recovery(cluster, faults, policy,
                                         engine=engine.name)
    stages["execute"] = ctx.timer.elapsed

    with timer.stage("reduce"):
        estimates = engine.reduce(plan, state, ctx, fault_report)
    with timer.stage("report"):
        rep = cluster.report()
        results: List[ParallelRunResult] = []
        for index, estimate in enumerate(estimates):
            meta = engine.report(plan, estimate, ctx, fault_report)
            if strip:
                meta["strip"] = {"contracts": len(estimates), "index": index}
            if record:
                meta["cluster"] = cluster
            results.append(ParallelRunResult(
                price=estimate.price,
                stderr=estimate.stderr,
                p=plan.p,
                sim_time=rep["elapsed"],
                wall_time=ctx.timer.elapsed,
                compute_time=rep["compute_time"],
                comm_time=rep["comm_time"],
                idle_time=rep["idle_time"],
                messages=rep["messages"],
                bytes_moved=rep["bytes_moved"],
                engine=engine.name,
                meta=meta,
            ))

    metrics = getattr(cfg, "metrics", None)
    if metrics is not None:
        if strip:
            metrics.counter("engine.strip_runs", engine=engine.name).inc()
            metrics.histogram("engine.strip_contracts", engine=engine.name
                              ).observe(float(len(results)))
        else:
            metrics.counter("engine.runs", engine=engine.name).inc()
        metrics.histogram("engine.wall_s", engine=engine.name).observe(
            ctx.timer.elapsed)
        metrics.histogram("engine.sim_s", engine=engine.name).observe(
            rep["elapsed"])
    extra = _observe_sched(cfg, engine, sched_stats,
                           {"contracts": len(results)} if strip else None)
    if ledger is not None:
        ledger.append(record_from_result(
            results[0], run_id=run_id or new_run_id(), kind=kind,
            config=cfg, stages=stages, fault_report=fault_report,
            extra=extra))
    return results, estimates


def run_pipeline(
    engine: PipelineEngine,
    model: Any,
    payoff: Any,
    expiry: float,
    p: int,
) -> Tuple[ParallelRunResult, Estimate]:
    """Price one contract; returns (result, estimate).

    Most callers want :func:`run_engine`; adapters that need reduce-stage
    extras (e.g. the greeks arrays) use this and read ``estimate.extras``.
    """
    results, estimates = _run(
        engine, PricingJob(model, (payoff,), expiry, p), "engine")
    return results[0], estimates[0]


def run_engine(
    engine: PipelineEngine,
    model: Any,
    payoff: Any,
    expiry: float,
    p: int,
) -> ParallelRunResult:
    """Price one contract and return just the :class:`ParallelRunResult`."""
    return run_pipeline(engine, model, payoff, expiry, p)[0]


def run_strip(
    engine: PipelineEngine,
    model: Any,
    payoffs: Sequence[Any],
    expiry: float,
    p: int,
) -> List[ParallelRunResult]:
    """Price a homogeneous contract strip through one fused engine run.

    Returns one :class:`~repro.engine.result.ParallelRunResult` per payoff,
    in strip order, each bitwise equal in price and stderr to the matching
    :func:`run_engine` call (asserted by the strip-equivalence test tier);
    timing/communication columns describe the *fused* run and are
    therefore shared by all members. Engines that are not ``batchable``
    price strips of one only.
    """
    return _run(engine, PricingJob(model, tuple(payoffs), expiry, p),
                "strip")[0]

"""The shared pipeline runner: one place for every cross-cutting concern.

Every job — a single contract or a fused strip — takes one route, the
private :func:`_run`, which applies the cross-cutting concerns **once**,
as a fixed middleware order around the engine's stages:

1. ``plan`` / ``partition`` (engine) — validation and work splitting;
2. **cluster middleware** — one :class:`SimulatedCluster` per run, built
   with the engine's machine spec, fault plan and tracer;
3. **execution middleware** — a mapped engine's tasks always meet the
   backend through one :class:`~repro.parallel.sched.Scheduler` (static
   chunks unless ``pricer.scheduler`` names LPT over the engine's
   ``task_costs`` estimates or work stealing — placement only, no price
   bit moves), wrapped in :func:`~repro.parallel.faults.resilient_map`
   when a non-empty fault plan is configured; scheduling stats land in
   engine metrics and the ledger record's ``extra["sched"]``. Inline
   engines run their loops and then pass through
   :func:`~repro.parallel.faults.simulate_recovery`. Either way the
   execute stage is timed by the run's one stage clock;
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
on the engine (which *is* the pricer): ``pricer.tracer = Tracer()``,
``pricer.ledger = RunLedger(path)``, ``pricer.profiler =
SamplingProfiler()``. Each is a class-level ``None`` when absent. When a
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
from typing import Any, ContextManager, Iterator, List, Optional, Sequence, Tuple

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
from repro.parallel.faults import RunReport, resilient_map, simulate_recovery
from repro.parallel.sched import Scheduler, resolve_scheduler
from repro.parallel.simcluster import SimulatedCluster

__all__ = ["run_pipeline", "run_engine", "run_strip"]


def _profile_ctx(engine: PipelineEngine) -> ContextManager[Any]:
    """The execute-stage profiler context (no-op unless one is attached)."""
    if engine.profiler is None:
        return nullcontext()
    return engine.profiler.profile(f"{engine.name}.execute")


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


def _scheduler_for(engine: PipelineEngine,
                   tasks: Optional[Sequence[RankTask]]) -> Scheduler:
    """Resolve the engine's execute-stage scheduler, gated by capability.

    ``engine.scheduler`` is stored as given (``None`` resolves to static).
    A non-static strategy requires a mapped engine that declares
    ``schedulable`` — inline engines run their own loops and have nothing
    to steal, and non-schedulable mapped engines have order-dependent
    reassembly the scheduler must not touch.
    """
    scheduler = resolve_scheduler(engine.scheduler)
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
            f"PipelineEngine.schedulable"
        )
    return scheduler


def _mapped_execute(
    engine: PipelineEngine,
    payloads: List[Any],
    *,
    run_id: Optional[str],
    scheduler: Scheduler,
    costs: Optional[Sequence[float]],
) -> Tuple[list, Optional[RunReport], Any]:
    """The mapped-engine execute stage: one scheduled map over the rank
    payloads, inside the fault middleware when a plan is configured.

    Returns ``(state, fault_report, sched_stats)``.
    """
    assert engine.worker is not None, f"{engine.name} engine has no worker"
    backend = engine.backend if engine.backend is not None else SerialBackend()
    if engine.faults is not None and not engine.faults.is_empty:
        state, fault_report = resilient_map(
            backend, engine.worker, payloads,
            plan=engine.faults, policy=engine.policy, chunksize=engine.chunksize,
            run_id=run_id, scheduler=scheduler, costs=costs,
        )
        return state, fault_report, fault_report.sched
    state, sched_stats = scheduler.map(backend, engine.worker, payloads,
                                       costs=costs, chunksize=engine.chunksize)
    return state, None, sched_stats


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
            f"PipelineEngine.batchable"
        )
    strip = kind == "strip"
    ledger = engine.ledger if engine.ledger is not None else active_ledger()
    timer = _StageTimer()

    with timer.stage("plan"):
        plan = engine.plan(job)
    with timer.stage("partition"):
        tasks = engine.partition(plan)

    faults, tracer, metrics = engine.faults, engine.tracer, engine.metrics
    run_id = new_run_id() if (ledger is not None or tracer is not None) else None
    scheduler = _scheduler_for(engine, tasks)
    cluster = SimulatedCluster(plan.p, engine.spec, record=engine.record,
                               faults=faults, tracer=tracer)
    ctx = PipelineContext(cluster=cluster, tracer=tracer)
    extra: dict[str, Any] = {"contracts": len(job.payoffs)} if strip else {}

    if tasks is not None:
        # Mapped engine: scheduler + fault + chunking middleware around
        # the backend map.
        costs = engine.task_costs(plan) if scheduler.name != "static" else None
        with timer.stage("execute"), _profile_ctx(engine):
            state, fault_report, sched_stats = _mapped_execute(
                engine, [task.payload for task in tasks],
                run_id=run_id, scheduler=scheduler, costs=costs,
            )
        engine.account(plan, ctx, fault_report)
        extra["sched"] = sched_stats.ledger_extra()
        if metrics is not None:
            metrics.counter("sched.steals", engine=engine.name).inc(
                sched_stats.steals)
            metrics.counter("sched.tasks_moved", engine=engine.name).inc(
                sched_stats.tasks_moved)
    else:
        # Inline engine: the arithmetic is the sequential reference, so
        # faults stretch the simulated timeline only (recovery is charged
        # after the compute loops, and rank loss raises).
        with timer.stage("execute"), _profile_ctx(engine):
            state = engine.execute(plan, ctx)
        fault_report = simulate_recovery(cluster, faults, engine.policy,
                                         engine=engine.name)
    wall = timer.stages["execute"]

    with timer.stage("reduce"):
        estimates = engine.reduce(plan, state, ctx, fault_report)
    with timer.stage("report"):
        rep = cluster.report()
        results: List[ParallelRunResult] = []
        for index, estimate in enumerate(estimates):
            meta = engine.report(plan, estimate, ctx, fault_report)
            if fault_report is not None:
                meta["fault_report"] = fault_report
            if strip:
                meta["strip"] = {"contracts": len(estimates), "index": index}
            if engine.record:
                meta["cluster"] = cluster
            results.append(ParallelRunResult(
                price=estimate.price,
                stderr=estimate.stderr,
                p=plan.p,
                sim_time=rep["elapsed"],
                wall_time=wall,
                compute_time=rep["compute_time"],
                comm_time=rep["comm_time"],
                idle_time=rep["idle_time"],
                messages=rep["messages"],
                bytes_moved=rep["bytes_moved"],
                engine=engine.name,
                meta=meta,
            ))

    if metrics is not None:
        if strip:
            metrics.counter("engine.strip_runs", engine=engine.name).inc()
            metrics.histogram("engine.strip_contracts", engine=engine.name
                              ).observe(float(len(results)))
        else:
            metrics.counter("engine.runs", engine=engine.name).inc()
        metrics.histogram("engine.wall_s", engine=engine.name).observe(wall)
        metrics.histogram("engine.sim_s", engine=engine.name).observe(
            rep["elapsed"])
    if ledger is not None:
        ledger.append(record_from_result(
            results[0], run_id=run_id or new_run_id(), kind=kind,
            config=engine, stages=timer.stages, fault_report=fault_report,
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

    Most callers want :func:`run_engine`; entry points that need
    reduce-stage extras (the greeks arrays) use this and read
    ``estimate.extras``.
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

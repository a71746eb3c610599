"""The engine pipeline contract: Plan → Partition → Execute → Reduce → Report.

Every parallel pricer **is** one :class:`PipelineEngine`: its settings, its
five explicit stages and its ``price``/``sweep`` entry points in one
class, driven by the shared runner (:mod:`repro.engine.runner`). A job is
always a *strip*: one model, one expiry, one or more payoffs. A single
contract is a strip of one and takes exactly the same route.

``plan(job)``
    Validate the job and build an :class:`ExecutionPlan` (per-rank path
    counts, lattice/solver objects, partition tables — anything the later
    stages need). No simulated time is charged here.
``partition(plan)``
    Split the plan into :class:`RankTask`\\ s for the execution backend, or
    return ``None`` for *inline* engines (lattice / PDE / LSM) whose
    arithmetic is the sequential reference re-run slab-by-slab in-process.
``execute`` / ``account``
    Mapped engines (``partition`` returned tasks) have their picklable
    :attr:`~PipelineEngine.worker` mapped over the task payloads by the
    runner — through the fault middleware, chunked, and wall-clock timed —
    and then charge the simulated cluster in :meth:`~PipelineEngine.account`.
    Inline engines implement :meth:`~PipelineEngine.execute`, which runs
    the level/step/date loops and charges the cluster as it goes.
``reduce(plan, state, ctx, fault_report)``
    Combine per-rank state into one :class:`Estimate` per payoff, in strip
    order, travelling the simulated reduction schedule so the
    floating-point association matches the modeled machine.
``report(plan, estimate, ctx, fault_report)``
    Engine-specific diagnostics for ``ParallelRunResult.meta``; the runner
    assembles the result objects itself from the cluster report.

Engines whose stages share work across the strip (one draw, one lattice
mesh for every payoff) declare :attr:`~PipelineEngine.batchable`; the
runner hands every other engine strips of one only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

from repro.engine.names import PARALLEL_ENGINES
from repro.engine.work import WorkModel
from repro.errors import ValidationError
from repro.parallel.faults import FaultPlan, FaultPolicy
from repro.parallel.simcluster import MachineSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.result import ParallelRunResult
    from repro.market.gbm import MultiAssetGBM
    from repro.obs.ledger import RunLedger
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import SamplingProfiler
    from repro.obs.tracer import Tracer
    from repro.parallel.backends import ExecutionBackend
    from repro.parallel.faults import RunReport
    from repro.parallel.sched import Scheduler
    from repro.parallel.simcluster import SimulatedCluster
    from repro.payoffs.base import Payoff

__all__ = [
    "PricingJob",
    "ExecutionPlan",
    "RankTask",
    "Estimate",
    "PipelineContext",
    "PipelineEngine",
]


@dataclass(frozen=True)
class PricingJob:
    """What to price: a contract strip on ``p`` simulated ranks.

    One model and expiry, one or more payoffs (the strip axis the fused
    kernels evaluate over); a single contract is a strip of one.
    """

    model: Any
    payoffs: Tuple[Any, ...]
    expiry: float
    p: int

    def __post_init__(self) -> None:
        if not self.payoffs:
            raise ValidationError("a contract strip needs at least one payoff")

    @property
    def payoff(self) -> Any:
        """The strip's first member — the only one, for a single contract."""
        return self.payoffs[0]


@dataclass
class ExecutionPlan:
    """Stage-1 output: the validated job plus engine planning state.

    ``scratch`` is the engine's private hand-off between stages (per-rank
    counts, solver objects, partition tables); nothing outside the engine
    reads it.
    """

    engine: str
    job: PricingJob
    p: int
    scratch: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.engine not in PARALLEL_ENGINES:
            raise ValidationError(
                f"plan names unknown engine {self.engine!r}; expected one of "
                f"{PARALLEL_ENGINES}"
            )


@dataclass(frozen=True)
class RankTask:
    """One rank's unit of backend-mapped work (payload must be picklable)."""

    rank: int
    payload: Any


@dataclass(frozen=True)
class Estimate:
    """Stage-4 output: the estimate plus engine-specific extras.

    ``extras`` carries reduce-stage by-products that belong neither in the
    result's headline fields nor in its meta (effective path counts, the
    greeks arrays) — entry points that need them
    (``ParallelMCGreeks.compute``) use
    :func:`repro.engine.runner.run_pipeline`.
    """

    price: float
    stderr: float
    extras: dict[str, Any] = field(default_factory=dict)


@dataclass
class PipelineContext:
    """Cross-cutting state the runner threads through the stages."""

    cluster: "SimulatedCluster"
    tracer: Optional["Tracer"]


class PipelineEngine:
    """Base class of the five parallel pricers: settings, stages, entry points.

    A subclass *is* its family's public pricer (``ParallelMCPricer`` …):
    the constructor stores the settings, the stage methods read them as
    ``self.<setting>``, and :meth:`price` / :meth:`sweep` drive the
    instance through the shared runner. Mapped engines set :attr:`worker`
    to a module-level picklable function and implement :meth:`partition` +
    :meth:`account`; inline engines return ``None`` from :meth:`partition`
    and implement :meth:`execute`.

    Shared settings — documented here once. Every family's constructor
    takes ``spec``, ``work``, ``record``, ``tracer`` and ``metrics``; the
    fault-aware four (all but Greeks) add ``faults`` and ``policy``; the
    backend-mapped two (MC, Greeks) add ``backend``, ``chunksize`` and
    ``scheduler``; ``ledger`` and ``profiler`` are attach-only. Any of
    them may also be assigned after construction (``pricer.tracer =
    Tracer()``, ``pricer.scheduler = "steal"``) and the next run honours it.

    spec : simulated machine parameters (default :class:`MachineSpec`).
    work : work-unit model for simulated compute accounting.
    record : keep each run's cluster event trace and attach the cluster to
        ``result.meta["cluster"]`` (render with ``perf.gantt``).
    faults : optional :class:`~repro.parallel.faults.FaultPlan`. When
        non-empty, a mapped engine's rank tasks run through the resilient
        map; an inline engine's arithmetic is the sequential reference, so
        faults stretch its simulated timeline only and a permanently lost
        rank raises. The run report lands in
        ``result.meta["fault_report"]``.
    policy : :class:`~repro.parallel.faults.FaultPolicy` or mode string
        ("fail_fast" | "retry" | "degrade"); default retry. Parsed where
        it is stored, so an unknown mode raises at assignment.
    tracer : optional :class:`~repro.obs.Tracer` recording the run on the
        **simulated** timeline: per-rank compute/comm/idle/fault spans
        (via the cluster) plus the family's phase spans on the main track.
        Real-backend worker spans live on the *backend's* tracer instead
        (wall clock) — keep the two separate.
    metrics : optional :class:`~repro.obs.MetricsRegistry`; each run feeds
        the shared ``engine.runs`` / ``engine.wall_s`` / ``engine.sim_s``
        series, labeled by engine name.
    ledger : optional :class:`~repro.obs.RunLedger` each run appends one
        record to (default: the ambient ``$REPRO_LEDGER`` ledger, if any).
    profiler : optional :class:`~repro.obs.SamplingProfiler` labelling the
        execute stage ``"<engine>.execute"``.
    backend : real execution backend the rank tasks are mapped over
        (default serial).
    chunksize : rank tasks per backend dispatch (None = one, "auto" =
        ``suggest_chunksize``). Transport only — estimates are
        chunking-invariant (asserted in the backend tests).
    scheduler : :class:`~repro.parallel.sched.Scheduler` or strategy name
        ("static" | "lpt" | "steal") deciding how rank tasks meet the
        backend's workers; ``None`` means static. Placement only — the
        estimate is scheduler-invariant bitwise (the ``scheduler``
        determinism check gates this).

    **Invariant.** :func:`repro.obs.ledger.config_digest` fingerprints a
    pricer by walking ``vars(pricer)``, so the primitive / ``None``-valued
    instance attributes a constructor stores are part of the ledger
    contract (pinned per family in ``tests/test_engine_config_pinned.py``).
    Hence the defaults below live on the *class* — a family stores only
    the settings its constructor offers — and ``scheduler`` is stored as
    given (a name stays a name) and resolved by the runner.
    """

    #: Canonical engine name (a :mod:`repro.engine.names` constant).
    name: str = ""
    #: Module-level worker the backend maps over task payloads, or ``None``.
    worker: Optional[Callable[[Any], Any]] = None
    #: Whether the stages price strips of more than one payoff (fused
    #: multi-contract pricing). The runner rejects longer strips for other
    #: engines, and :func:`~repro.batch.plan.plan_batches` fuses only
    #: requests to these.
    batchable: bool = False
    #: Whether the engine's rank tasks may be re-placed by a non-static
    #: :class:`~repro.parallel.sched.Scheduler` (LPT / work stealing).
    #: True only for mapped engines whose tasks are independent and
    #: reassembled by index.
    schedulable: bool = False

    spec: MachineSpec
    work: WorkModel
    record: bool = False
    faults: Optional[FaultPlan] = None
    tracer: Optional["Tracer"] = None
    metrics: Optional["MetricsRegistry"] = None
    ledger: Optional["RunLedger"] = None
    profiler: Optional["SamplingProfiler"] = None
    backend: Optional["ExecutionBackend"] = None
    chunksize: int | str | None = None
    scheduler: "Scheduler | str | None" = None
    _policy: FaultPolicy = FaultPolicy()

    def __init__(self, *, spec: Optional[MachineSpec],
                 work: Optional[WorkModel], record: bool,
                 tracer: Optional["Tracer"],
                 metrics: Optional["MetricsRegistry"]) -> None:
        self.spec = spec if spec is not None else MachineSpec()
        self.work = work if work is not None else WorkModel()
        self.record = bool(record)
        self.tracer = tracer
        self.metrics = metrics

    @property
    def policy(self) -> FaultPolicy:
        return self._policy

    @policy.setter
    def policy(self, value: FaultPolicy | str | None) -> None:
        self._policy = FaultPolicy.parse(value)

    # -- entry points ---------------------------------------------------

    def price(self, model: "MultiAssetGBM", payoff: "Payoff", expiry: float,
              p: int) -> "ParallelRunResult":
        """Price on ``p`` simulated ranks; returns estimate + T(P) breakdown."""
        from repro.engine.runner import run_engine  # the runner imports us

        return run_engine(self, model, payoff, expiry, p)

    def sweep(self, model: "MultiAssetGBM", payoff: "Payoff", expiry: float,
              p_list: Sequence[int]) -> List["ParallelRunResult"]:
        """Price at each P in ``p_list`` (fresh cluster per point)."""
        return [self.price(model, payoff, expiry, p) for p in p_list]

    # -- stages ---------------------------------------------------------

    def plan(self, job: PricingJob) -> ExecutionPlan:
        raise NotImplementedError

    def partition(self, plan: ExecutionPlan) -> Optional[Sequence[RankTask]]:
        """Rank tasks for the backend map; ``None`` for inline engines."""
        return None

    def task_costs(self, plan: ExecutionPlan) -> Optional[Sequence[float]]:
        """Per-task cost estimates for cost-aware schedulers (LPT), in
        :meth:`partition` order; ``None`` when the engine has no estimate
        (schedulers then fall back to submission order)."""
        return None

    def execute(self, plan: ExecutionPlan, ctx: PipelineContext) -> Any:
        """Inline engines: run the compute loops, charging the cluster."""
        raise NotImplementedError(
            f"{type(self).__name__} is backend-mapped; it has no inline "
            f"execute stage"
        )

    def account(self, plan: ExecutionPlan, ctx: PipelineContext,
                fault_report: Optional["RunReport"]) -> None:
        """Mapped engines: charge the simulated cluster for the map."""
        raise NotImplementedError(
            f"{type(self).__name__} runs inline; it has no mapped account "
            f"stage"
        )

    def reduce(self, plan: ExecutionPlan, state: Any, ctx: PipelineContext,
               fault_report: Optional["RunReport"]) -> List[Estimate]:
        """One estimate per payoff, in strip order."""
        raise NotImplementedError

    def report(self, plan: ExecutionPlan, estimate: Estimate,
               ctx: PipelineContext,
               fault_report: Optional["RunReport"]) -> dict[str, Any]:
        """Engine-specific ``meta`` entries; the runner adds
        ``fault_report`` (when there is one) and ``cluster`` itself."""
        return {}

"""The engine pipeline contract: Plan → Partition → Execute → Reduce → Report.

Every parallel pricer is one :class:`PipelineEngine` with five explicit
stages, driven by the shared runner (:mod:`repro.engine.runner`). A job is
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

Engines are deliberately *thin wrappers around a config object* (the
:mod:`repro.core` pricer classes double as configs), so pickled configs,
constructor signatures and attribute names are independent of the
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

from repro.engine.names import PARALLEL_ENGINES
from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer
    from repro.parallel.faults import RunReport
    from repro.parallel.simcluster import SimulatedCluster
    from repro.perf.timer import Timer

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
    greeks arrays) — adapters that need them use
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
    timer: "Timer"


class PipelineEngine:
    """Base class for pipeline engines: five stages around a config object.

    ``config`` is any object exposing this engine family's settings — in
    practice the :mod:`repro.core` pricer instance, a thin adapter over the
    pipeline.
    Mapped engines set :attr:`worker` to a module-level picklable function
    and implement :meth:`partition` + :meth:`account`; inline engines
    return ``None`` from :meth:`partition` and implement :meth:`execute`.
    """

    #: Canonical engine name (a :mod:`repro.engine.names` constant).
    name: str = ""
    #: Module-level worker the backend maps over task payloads, or ``None``.
    worker: Optional[Callable[[Any], Any]] = None
    #: Whether the stages price strips of more than one payoff (fused
    #: multi-contract pricing); mirrored by the registry's ``batchable``
    #: capability flag. The runner rejects longer strips for other engines.
    batchable: bool = False
    #: Whether the engine's rank tasks may be re-placed by a non-static
    #: :class:`~repro.parallel.sched.Scheduler` (LPT / work stealing).
    #: True only for mapped engines whose tasks are independent and
    #: reassembled by index; mirrored by the registry's ``schedulable``
    #: capability flag.
    schedulable: bool = False

    def __init__(self, config: Any):
        self.config = config

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
        """Engine-specific ``meta`` entries (fault/cross-cutting entries
        the engine owns semantically are added here too)."""
        return {}

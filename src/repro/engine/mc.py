"""Parallel Monte Carlo pricer: path-wise domain decomposition.

Algorithm (per rank r of P):

1. the path count is block-partitioned: rank r simulates ``n_r`` paths,
   ``|n_r − n/P| ≤ 1``;
2. rank r owns substream r of the master generator (key-split, block-split
   or leapfrog — chosen at construction), so its draws are disjoint from
   every other rank's by construction;
3. rank r accumulates its technique's sufficient statistics — an O(1)
   payload regardless of ``n_r`` (e.g. 24 bytes for plain MC);
4. a binomial-tree reduction combines partials to rank 0 in ⌈log₂ P⌉
   rounds; rank 0 finalizes the estimator.

The *estimate* is a pure function of (master seed, partition scheme, P),
not of which backend executes the ranks or in what order — asserted in the
integration tests by pricing the same job on serial, thread and process
backends. Simulated time charges each rank its per-path work and the
reduction its α–β cost; with O(1) payloads the communication term is
⌈log₂ P⌉(α + 24β), which is why this workload scales almost linearly
(experiments T2/F1/F2).

The staged implementation below is driven by the shared pipeline runner
(:mod:`repro.engine.runner`), which applies the fault, tracing, chunking,
timing and metrics middleware once for every engine family.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.batch.kernels import check_homogeneous, strip_partial
from repro.engine.contract import check_contract
from repro.engine.names import MC
from repro.engine.pipeline import (
    Estimate,
    ExecutionPlan,
    PipelineContext,
    PipelineEngine,
    PricingJob,
    RankTask,
)
from repro.engine.work import WorkModel
from repro.errors import ValidationError
from repro.mc.qmc import QMCSobol
from repro.mc.statistics import CrossStats, SampleStats, StrataStats
from repro.mc.variance_reduction import PlainMC, Technique
from repro.obs import MetricsRegistry, Tracer
from repro.parallel.backends import ExecutionBackend, SerialBackend
from repro.parallel.faults import FaultPlan, FaultPolicy, RunReport, charge_report
from repro.parallel.partition import block_sizes
from repro.parallel.sched import Scheduler, resolve_scheduler
from repro.parallel.simcluster import MachineSpec, combine_on_schedule
from repro.rng import Philox4x32
from repro.rng.streams import StreamPartition, make_substreams
from repro.utils.validation import check_positive_int

__all__ = ["ParallelMCPricer"]


def _partial_nbytes(partial: Any) -> float:
    """Wire size (bytes) of one technique partial — the reduce payload."""
    if isinstance(partial, SampleStats):
        return 3 * 8
    if isinstance(partial, CrossStats):
        return 6 * 8
    if isinstance(partial, StrataStats):
        return 3 * 8 * len(partial.strata)
    if isinstance(partial, tuple):  # QMC replicate tuple
        return sum(_partial_nbytes(p) for p in partial)
    raise ValidationError(f"unknown partial type {type(partial).__name__}")


def _rank_task(task: Tuple[Any, ...]) -> Any:
    """Module-level worker (picklable for the process backend): one rank's
    technique partials, one per payoff of the strip.

    The fused kernel shares the draws, not the arithmetic order, so each
    partial is what ``technique.partial`` returns for that payoff alone.
    """
    technique, model, payoffs, expiry, n, gen, steps, skip = task
    return strip_partial(technique, model, payoffs, expiry, n, gen,
                         steps=steps, skip=skip)


class ParallelMCPricer(PipelineEngine):
    """Parallel Monte Carlo over a simulated (and optionally real) machine.

    Backend-mapped. Shared settings (``spec``, ``work``, ``record``,
    ``faults``, ``policy``, ``tracer``, ``metrics``, ``backend``,
    ``chunksize``, ``scheduler``) are documented on
    :class:`~repro.engine.pipeline.PipelineEngine`.

    Parameters
    ----------
    n_paths : total paths across all ranks.
    technique : estimator strategy (default :class:`PlainMC`); QMC is
        supported — ranks then split the *same* Sobol point set by blocks.
    steps : monitoring dates for path-dependent payoffs.
    scheme : RNG substream scheme (default key splitting).
    seed : master seed.
    reduce_topology : "tree" (default) or "linear" — ablated in F7.
    faults, policy : under retry, a recovered run is bitwise equal to the
        fault-free run (each attempt replays a fresh copy of the rank
        task, so RNG substreams are never consumed twice). Under degrade,
        exhausted ranks are dropped and the estimator reprices with the
        survivors — fewer paths, so the reported CI widens honestly.
    tracer : phase spans are ``mc.paths`` / ``mc.reduce``.
    """

    name = MC
    worker = staticmethod(_rank_task)
    batchable = True
    # Rank tasks are independent substreams reduced by index, so a
    # scheduler may re-place them freely (prices stay bitwise).
    schedulable = True

    def __init__(
        self,
        n_paths: int,
        *,
        technique: Technique | None = None,
        steps: int | None = None,
        scheme: StreamPartition | str = StreamPartition.KEYED,
        seed: int = 0,
        spec: MachineSpec | None = None,
        backend: ExecutionBackend | None = None,
        reduce_topology: str = "tree",
        work: WorkModel | None = None,
        record: bool = False,
        faults: FaultPlan | None = None,
        policy: FaultPolicy | str | None = None,
        tracer: Tracer | None = None,
        chunksize: int | str | None = None,
        metrics: MetricsRegistry | None = None,
        scheduler: Scheduler | str | None = None,
    ) -> None:
        super().__init__(spec=spec, work=work, record=record, tracer=tracer,
                         metrics=metrics)
        self.n_paths = check_positive_int("n_paths", n_paths)
        self.technique = technique if technique is not None else PlainMC()
        self.steps = None if steps is None else check_positive_int("steps", steps)
        self.scheme = StreamPartition(scheme)
        self.seed = int(seed)
        self.backend = backend if backend is not None else SerialBackend()
        if reduce_topology not in ("tree", "linear"):
            raise ValidationError(
                f"reduce_topology must be 'tree' or 'linear', got {reduce_topology!r}"
            )
        self.reduce_topology = reduce_topology
        self.faults = faults
        self.policy = policy
        self.chunksize = chunksize
        resolve_scheduler(scheduler)  # reject a bad name here, not at price()
        self.scheduler = scheduler

    # -- plan -----------------------------------------------------------

    def _build_tasks(self, model: Any, payoffs: Tuple[Any, ...], expiry: float,
                     p: int) -> Tuple[List[Tuple[Any, ...]], List[int]]:
        """Per-rank task tuples plus per-rank path counts."""
        gens: List[Any]
        skips: List[Optional[int]]
        if isinstance(self.technique, QMCSobol):
            reps = self.technique.replicates
            if self.n_paths % reps:
                raise ValidationError(
                    f"n_paths={self.n_paths} must be a multiple of the QMC "
                    f"replicate count {reps}"
                )
            # Ranks split the same point set by blocks: rank r skips the
            # points before its block. The generators are unused by QMC.
            sizes = block_sizes(self.n_paths // reps, p)
            counts = [size * reps for size in sizes]
            skips = [int(o) for o in np.concatenate([[0], np.cumsum(sizes)[:-1]])]
            gens = [Philox4x32(self.seed, stream=r) for r in range(p)]
        else:
            counts = block_sizes(self.n_paths, p)
            skips = [None] * p
            gens = make_substreams(Philox4x32(self.seed), p, self.scheme)
        tasks = [
            (self.technique, model, payoffs, expiry, counts[r], gens[r],
             self.steps, skips[r])
            for r in range(p)
        ]
        return tasks, counts

    def plan(self, job: PricingJob) -> ExecutionPlan:
        """Every payoff rides in every rank task, so partitioning and
        substream assignment do not depend on the strip's length — the
        bitwise equivalence of a fused strip and its members priced singly
        rests on exactly that."""
        p = check_positive_int("p", job.p)
        check_contract(self.name, job.model, job.payoffs, job.expiry, p=p,
                       n_paths=self.n_paths, steps=self.steps, n_space=None)
        check_homogeneous(job.payoffs)
        tasks, counts = self._build_tasks(job.model, job.payoffs, job.expiry, p)
        zero_ranks = [r for r, c in enumerate(counts) if c == 0]
        if zero_ranks:
            raise ValidationError(
                f"ranks {zero_ranks} would receive zero paths; reduce p or "
                f"raise n_paths"
            )
        return ExecutionPlan(engine=self.name, job=job, p=p,
                             scratch={"tasks": tasks, "counts": counts})

    def partition(self, plan: ExecutionPlan) -> Sequence[RankTask]:
        return [RankTask(rank=r, payload=task)
                for r, task in enumerate(plan.scratch["tasks"])]

    def task_costs(self, plan: ExecutionPlan) -> Sequence[float]:
        """Per-rank path counts — the LPT scheduler's cost estimates."""
        return [float(c) for c in plan.scratch["counts"]]

    # -- account --------------------------------------------------------

    def account(self, plan: ExecutionPlan, ctx: PipelineContext,
                fault_report: Optional[RunReport]) -> None:
        cluster = ctx.cluster
        counts: List[int] = plan.scratch["counts"]
        dim = plan.job.model.dim
        # A strip shares path generation and the price transform; each
        # contract after the first only re-runs the payoff on the shared
        # paths, so the per-path work grows by the payoff term alone — the
        # amortization the batched throughput gate measures.
        units = self.work.mc_path_units(dim, self.steps) + (
            len(plan.job.payoffs) - 1
        ) * (dim * self.work.payoff_per_asset + self.work.payoff_base)
        if fault_report is None:
            cluster.compute_all([c * units for c in counts])
        else:
            # Recovery first (wasted attempts + backoff), then the charge
            # for the attempt that finally succeeded; lost ranks only ever
            # burned fault time.
            faults = self.faults
            assert faults is not None, "a fault report implies a fault plan"
            base_seconds = [
                counts[r] * units * self.spec.flop_time * faults.slowdown(r)
                for r in range(plan.p)
            ]
            charge_report(cluster, fault_report, base_seconds, self.policy)
            for r in range(plan.p):
                if r not in fault_report.lost_ranks:
                    cluster.compute(r, counts[r] * units)
        if ctx.tracer:
            ctx.tracer.add_span("mc.paths", 0.0, cluster.elapsed())

    # -- reduce ---------------------------------------------------------

    def reduce(self, plan: ExecutionPlan, state: Any, ctx: PipelineContext,
               fault_report: Optional[RunReport]) -> List[Estimate]:
        """Per-contract reductions over the per-rank partials.

        ``state[r]`` is rank r's list of per-contract partials. The strip
        travels the simulated reduction schedule *once* (one message per
        edge carrying every contract's partial — the comm amortization),
        and each contract's partials are combined in that schedule's
        association order via :func:`combine_on_schedule`: the merged value
        is exactly what the modeled machine's reduce would deliver at rank
        0, so an estimate does not depend on what else rode in the strip.
        """
        cluster = ctx.cluster
        per_rank: List[Any] = state
        contracts = len(plan.job.payoffs)
        lost = fault_report.lost_ranks if fault_report is not None else ()
        ranks = [r for r in range(plan.p) if r not in lost]
        reduce_t0 = cluster.elapsed()
        cluster.reduce(contracts * _partial_nbytes(per_rank[ranks[0]][0]),
                       root=0, topology=self.reduce_topology)
        if lost:
            # Degraded repricing: merge the survivors in rank order; the
            # estimator sees fewer paths, so its standard error (the
            # reported CI) widens.
            merged = [self.technique.combine([per_rank[r][j] for r in ranks])
                      for j in range(contracts)]
        else:
            # Shared by the fault-free and fully-recovered paths, so a
            # retry-recovered price equals the fault-free one bitwise.
            merged = [
                combine_on_schedule(
                    [per_rank[r][j] for r in ranks],
                    lambda a, b: self.technique.combine([a, b]),
                    root=0,
                    topology=self.reduce_topology,
                )
                for j in range(contracts)
            ]
        if ctx.tracer:
            ctx.tracer.add_span("mc.reduce", reduce_t0, cluster.elapsed(),
                                topology=self.reduce_topology,
                                contracts=contracts)
        estimates = []
        for part in merged:
            price, stderr, n_eff = self.technique.finalize(part)
            estimates.append(Estimate(price=price, stderr=stderr,
                                      extras={"n_eff": n_eff}))
        return estimates

    # -- report ---------------------------------------------------------

    def report(self, plan: ExecutionPlan, estimate: Estimate,
               ctx: PipelineContext,
               fault_report: Optional[RunReport]) -> Dict[str, Any]:
        return {
            "technique": self.technique.name,
            "n_paths": estimate.extras["n_eff"],
            "scheme": self.scheme.value,
            "reduce_topology": self.reduce_topology,
            "counts": plan.scratch["counts"],
            **({"degraded": fault_report.degraded,
                "lost_ranks": fault_report.lost_ranks}
               if fault_report is not None else {}),
        }

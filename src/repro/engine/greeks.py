"""Parallel hedge-parameter (Greeks) computation: CRN bump-and-revalue.

A risk run revalues the same contract under ``1 + 4d`` bumped models
(base, spot up/down and vol up/down per asset) with **common random
numbers**. The parallel structure mirrors the MC pricer — paths are
block-partitioned, every rank replays its substream for each bumped model
— but each rank now ships ``1 + 4d`` sufficient-statistics payloads in one
reduction, and the per-rank compute is ``(1 + 4d)×`` the pricing work.
Communication stays O(d) per rank versus O(N·d) compute, so Greeks scale
as well as pricing (benchmark F12).

CRN is preserved across ranks *and* bumps: rank r clones its substream for
every model, so the differences delta/gamma/vega are smooth at any P and
identical to the sequential :func:`repro.mc.mc_greeks_bump` estimator run
on the same substream layout. The per-rank bump revaluations are
backend-mapped (thread/process pools) like the MC pricer's rank tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.contract import check_contract
from repro.engine.names import GREEKS
from repro.engine.pipeline import (
    Estimate,
    ExecutionPlan,
    PipelineContext,
    PipelineEngine,
    PricingJob,
    RankTask,
)
from repro.engine.result import ParallelRunResult
from repro.engine.runner import run_pipeline
from repro.engine.work import WorkModel
from repro.market.gbm import MultiAssetGBM
from repro.mc.variance_reduction import PlainMC
from repro.obs import MetricsRegistry, Tracer
from repro.parallel.backends import ExecutionBackend
from repro.parallel.faults import RunReport
from repro.parallel.partition import block_sizes
from repro.parallel.sched import Scheduler, resolve_scheduler
from repro.parallel.simcluster import MachineSpec
from repro.payoffs.base import Payoff
from repro.rng import Philox4x32
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["ParallelGreeksResult", "ParallelMCGreeks"]


@dataclass(frozen=True)
class ParallelGreeksResult:
    """Greeks plus the parallel-run diagnostics."""

    price: float
    stderr: float
    delta: np.ndarray
    gamma: np.ndarray
    vega: np.ndarray
    run: ParallelRunResult
    meta: dict = field(default_factory=dict)


def _greeks_rank_task(task: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Module-level worker (picklable for the process backend).

    Replays the rank's substream for every bumped model — cloning per
    valuation, exactly as the sequential CRN estimator does.
    """
    models, payoff, expiry, n, gen = task
    technique = PlainMC()
    return tuple(
        technique.partial(m_j, payoff, expiry, n, gen.clone()) for m_j in models
    )


class ParallelMCGreeks(PipelineEngine):
    """CRN bump-and-revalue Greeks over the simulated machine.

    Backend-mapped. Shared settings (``spec``, ``work``, ``record``,
    ``tracer``, ``metrics``, ``backend``, ``chunksize``, ``scheduler``)
    are documented on :class:`~repro.engine.pipeline.PipelineEngine`.

    Parameters
    ----------
    n_paths : paths per valuation (each of the ``1+4d`` bumped models
        replays the same draws).
    rel_bump, vol_bump : bump sizes as in :func:`repro.mc.mc_greeks_bump`.
    seed : master seed.
    """

    name = GREEKS
    worker = staticmethod(_greeks_rank_task)
    # CRN substreams are cloned per rank and merged by index, so a
    # scheduler may re-place rank tasks freely (greeks stay bitwise).
    schedulable = True

    def __init__(
        self,
        n_paths: int,
        *,
        rel_bump: float = 0.01,
        vol_bump: float = 0.01,
        seed: int = 0,
        spec: MachineSpec | None = None,
        work: WorkModel | None = None,
        backend: ExecutionBackend | None = None,
        chunksize: int | str | None = None,
        record: bool = False,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        scheduler: Scheduler | str | None = None,
    ) -> None:
        super().__init__(spec=spec, work=work, record=record, tracer=tracer,
                         metrics=metrics)
        self.n_paths = check_positive_int("n_paths", n_paths)
        self.rel_bump = check_positive("rel_bump", rel_bump)
        self.vol_bump = check_positive("vol_bump", vol_bump)
        self.seed = int(seed)
        self.backend = backend
        self.chunksize = chunksize
        resolve_scheduler(scheduler)  # reject a bad name here, not at price()
        self.scheduler = scheduler

    def _bumped_models(self, model: MultiAssetGBM
                       ) -> Tuple[List[MultiAssetGBM], List[float]]:
        """base + per-asset spot up/down + per-asset vol up/down."""
        models = [model]
        d = model.dim
        bumps = []
        for i in range(d):
            h = self.rel_bump * float(model.spots[i])
            up = model.spots.copy(); up[i] += h
            dn = model.spots.copy(); dn[i] -= h
            models.append(model.with_spots(up))
            models.append(model.with_spots(dn))
            bumps.append(h)
        for i in range(d):
            vu = model.vols.copy(); vu[i] += self.vol_bump
            vd = model.vols.copy(); vd[i] = max(vd[i] - self.vol_bump, 1e-8)
            models.append(model.with_vols(vu))
            models.append(model.with_vols(vd))
        return models, bumps

    def compute(self, model: MultiAssetGBM, payoff: Payoff, expiry: float,
                p: int) -> ParallelGreeksResult:
        """Run the risk sweep on ``p`` simulated ranks (the inherited
        :meth:`price` returns just its base-price run result)."""
        run, estimate = run_pipeline(self, model, payoff, expiry, p)
        return ParallelGreeksResult(
            price=run.price, stderr=run.stderr,
            delta=estimate.extras["delta"], gamma=estimate.extras["gamma"],
            vega=estimate.extras["vega"], run=run,
            meta={"rel_bump": self.rel_bump, "vol_bump": self.vol_bump},
        )

    def plan(self, job: PricingJob) -> ExecutionPlan:
        p = check_positive_int("p", job.p)
        check_contract(self.name, job.model, job.payoffs, job.expiry, p=p,
                       n_paths=self.n_paths, steps=None, n_space=None)
        models, spot_bumps = self._bumped_models(job.model)
        counts = block_sizes(self.n_paths, p)
        master = Philox4x32(self.seed, stream=0x9E)
        subs = master.spawn(p)
        return ExecutionPlan(engine=self.name, job=job, p=p,
                             scratch={"models": models,
                                      "spot_bumps": spot_bumps,
                                      "counts": counts, "subs": subs})

    def partition(self, plan: ExecutionPlan) -> Sequence[RankTask]:
        job = plan.job
        models = plan.scratch["models"]
        counts = plan.scratch["counts"]
        subs = plan.scratch["subs"]
        return [
            RankTask(rank=r, payload=(models, job.payoff, job.expiry,
                                      counts[r], subs[r]))
            for r in range(plan.p)
        ]

    def task_costs(self, plan: ExecutionPlan) -> Sequence[float]:
        """Per-rank path counts — the LPT scheduler's cost estimates."""
        return [float(c) for c in plan.scratch["counts"]]

    def account(self, plan: ExecutionPlan, ctx: PipelineContext,
                fault_report: Optional[RunReport]) -> None:
        counts: List[int] = plan.scratch["counts"]
        units = self.work.mc_path_units(plan.job.model.dim, None) * len(
            plan.scratch["models"])
        ctx.cluster.compute_all([c * units for c in counts])
        if ctx.tracer:
            ctx.tracer.add_span("greeks.paths", 0.0, ctx.cluster.elapsed())

    def reduce(self, plan: ExecutionPlan, state: Any, ctx: PipelineContext,
               fault_report: Optional[RunReport]) -> List[Estimate]:
        model = plan.job.model
        d = model.dim
        n_models = len(plan.scratch["models"])
        spot_bumps = plan.scratch["spot_bumps"]
        merged = ctx.cluster.reduce_data(
            state,
            lambda a, b: tuple(x.merge(y) for x, y in zip(a, b)),
            24.0 * n_models,
            root=0,
            topology="tree",
        )
        values = [s.mean for s in merged]
        price = values[0]
        stderr = merged[0].stderr

        delta = np.empty(d)
        gamma = np.empty(d)
        vega = np.empty(d)
        for i in range(d):
            h = spot_bumps[i]
            up, dn = values[1 + 2 * i], values[2 + 2 * i]
            delta[i] = (up - dn) / (2.0 * h)
            gamma[i] = (up - 2.0 * price + dn) / (h * h)
        offset = 1 + 2 * d
        for i in range(d):
            vu_val = values[offset + 2 * i]
            vd_val = values[offset + 2 * i + 1]
            v_hi = float(model.vols[i]) + self.vol_bump
            v_lo = max(float(model.vols[i]) - self.vol_bump, 1e-8)
            vega[i] = (vu_val - vd_val) / (v_hi - v_lo)
        return [Estimate(price=price, stderr=stderr,
                         extras={"delta": delta, "gamma": gamma,
                                 "vega": vega})]

    def report(self, plan: ExecutionPlan, estimate: Estimate,
               ctx: PipelineContext,
               fault_report: Optional[RunReport]) -> Dict[str, Any]:
        return {
            "n_models": len(plan.scratch["models"]),
            "counts": plan.scratch["counts"],
        }

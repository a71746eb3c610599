"""Pipeline engine: CRN bump-and-revalue hedge parameters (Greeks).

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
on the same substream layout.

The public entry point is
:class:`repro.core.greeks_parallel.ParallelMCGreeks`, a thin config
adapter over this engine.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.names import GREEKS
from repro.engine.pipeline import (
    Estimate,
    ExecutionPlan,
    PipelineContext,
    PipelineEngine,
    PricingJob,
    RankTask,
)
from repro.errors import ValidationError
from repro.mc.variance_reduction import PlainMC
from repro.parallel.faults import RunReport
from repro.parallel.partition import block_sizes
from repro.rng import Philox4x32
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["GreeksEngine", "_greeks_rank_task"]


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


class GreeksEngine(PipelineEngine):
    """Backend-mapped pipeline engine over a ``ParallelMCGreeks`` config."""

    name = GREEKS
    worker = staticmethod(_greeks_rank_task)
    # CRN substreams are cloned per rank and merged by index, so a
    # scheduler may re-place rank tasks freely (greeks stay bitwise).
    schedulable = True

    def plan(self, job: PricingJob) -> ExecutionPlan:
        cfg = self.config
        check_positive("expiry", job.expiry)
        p = check_positive_int("p", job.p)
        if job.payoff.dim != job.model.dim:
            raise ValidationError(
                f"payoff dim {job.payoff.dim} does not match model dim "
                f"{job.model.dim}"
            )
        if p > cfg.n_paths:
            raise ValidationError(
                f"more ranks ({p}) than paths ({cfg.n_paths})"
            )
        models, spot_bumps = cfg._bumped_models(job.model)
        counts = block_sizes(cfg.n_paths, p)
        if min(counts) == 0:
            raise ValidationError("some rank would receive zero paths; lower p")
        master = Philox4x32(cfg.seed, stream=0x9E)
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
        cfg = self.config
        counts: List[int] = plan.scratch["counts"]
        units = cfg.work.mc_path_units(plan.job.model.dim, None) * len(
            plan.scratch["models"])
        ctx.cluster.compute_all([c * units for c in counts])
        if ctx.tracer:
            ctx.tracer.add_span("greeks.paths", 0.0, ctx.cluster.elapsed())

    def reduce(self, plan: ExecutionPlan, state: Any, ctx: PipelineContext,
               fault_report: Optional[RunReport]) -> List[Estimate]:
        cfg = self.config
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
            v_hi = float(model.vols[i]) + cfg.vol_bump
            v_lo = max(float(model.vols[i]) - cfg.vol_bump, 1e-8)
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

"""Parallel Longstaff–Schwartz: American Monte Carlo with distributed
regression.

The LSM backward induction is MC's *synchronized iterative algorithm*: at
every exercise date the regression couples all paths, so ranks cannot
proceed independently the way European path-averaging does. The classical
parallel formulation (used by the era's American-MC codes):

1. paths are block-partitioned; rank r simulates and stores its own block;
2. at each exercise date, each rank builds the **normal-equation moments**
   of its in-the-money paths — ``A_r = X_rᵀX_r`` (k×k) and
   ``b_r = X_rᵀy_r`` (k) — an O(k²) payload independent of the path count;
3. one allreduce sums the moments; every rank solves the same tiny k×k
   system, so all ranks hold the *global* regression coefficients;
4. exercise decisions are applied locally; the final price is a standard
   sufficient-statistics reduction.

Communication is one O(k²) allreduce per exercise date — between MC's
single terminal reduce and the lattice's per-level halos, which is exactly
where its measured scaling lands (benchmark F12).

The sequential reference solves the same normal equations
(:class:`LongstaffSchwartz` with ``rcond``-free lstsq is numerically
equivalent for these small, scaled bases); paths are generated from the
master seed independently of P, so the estimate varies across P only
through the allreduce's floating-point association.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from repro.engine.contract import check_contract
from repro.engine.names import LSM
from repro.engine.pipeline import (
    Estimate,
    ExecutionPlan,
    PipelineContext,
    PipelineEngine,
    PricingJob,
)
from repro.engine.work import WorkModel
from repro.mc.american import polynomial_features
from repro.mc.statistics import SampleStats
from repro.obs import MetricsRegistry, Tracer
from repro.parallel.faults import FaultPlan, FaultPolicy, RunReport
from repro.parallel.partition import block_partition
from repro.parallel.simcluster import MachineSpec
from repro.rng import Philox4x32
from repro.utils.validation import check_positive_int

__all__ = ["ParallelLSMPricer"]


class ParallelLSMPricer(PipelineEngine):
    """Distributed-regression LSM over the simulated machine.

    Inline (the per-date allreduce couples every rank, so rank loss
    raises). Shared settings (``spec``, ``work``, ``record``, ``faults``,
    ``policy``, ``tracer``, ``metrics``) are documented on
    :class:`~repro.engine.pipeline.PipelineEngine`.

    Parameters
    ----------
    n_paths : total simulated paths.
    steps : exercise dates.
    degree : regression polynomial degree.
    seed : master seed.
    min_regression_paths : skip the regression on dates with fewer
        in-the-money paths.
    tracer : phase spans are ``lsm.paths`` / per-date ``lsm.regression`` /
        ``lsm.reduce``.
    """

    name = LSM

    def __init__(
        self,
        n_paths: int,
        steps: int,
        *,
        degree: int = 2,
        seed: int = 0,
        spec: MachineSpec | None = None,
        work: WorkModel | None = None,
        min_regression_paths: int = 32,
        record: bool = False,
        faults: FaultPlan | None = None,
        policy: FaultPolicy | str | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(spec=spec, work=work, record=record, tracer=tracer,
                         metrics=metrics)
        self.n_paths = check_positive_int("n_paths", n_paths)
        self.steps = check_positive_int("steps", steps)
        self.degree = check_positive_int("degree", degree)
        self.seed = int(seed)
        self.min_regression_paths = check_positive_int(
            "min_regression_paths", min_regression_paths
        )
        self.faults = faults
        self.policy = policy

    def plan(self, job: PricingJob) -> ExecutionPlan:
        p = check_positive_int("p", job.p)
        check_contract(self.name, job.model, job.payoffs, job.expiry, p=p,
                       n_paths=self.n_paths, steps=self.steps, n_space=None)
        parts = block_partition(self.n_paths, p)
        # Basis size for the work model and the allreduce payload.
        k = polynomial_features(np.ones((1, job.model.dim)), self.degree,
                                job.model.spots).shape[1]
        return ExecutionPlan(engine=self.name, job=job, p=p,
                             scratch={"parts": parts, "k": k,
                                      "moment_bytes": (k * k + k + 1) * 8.0})

    def execute(self, plan: ExecutionPlan, ctx: PipelineContext) -> Dict[str, Any]:
        cluster = ctx.cluster
        tracer = ctx.tracer
        model, payoff, expiry = plan.job.model, plan.job.payoff, plan.job.expiry
        n, m, d = self.n_paths, self.steps, model.dim
        parts = plan.scratch["parts"]
        k = plan.scratch["k"]
        moment_bytes = plan.scratch["moment_bytes"]

        # Paths come from the master stream regardless of P (the estimate is
        # then P-invariant up to the allreduce's float association).
        paths = model.sample_paths(Philox4x32(self.seed, stream=0x15A), n,
                                   expiry, m)
        dt = expiry / m
        disc = math.exp(-model.rate * dt)

        cash = payoff.intrinsic(paths[:, -1, :])
        tau = np.full(n, m, dtype=np.int64)

        path_units = self.work.mc_path_units(d, m)
        for r, (lo, hi) in enumerate(parts):
            cluster.compute(r, (hi - lo) * path_units)
        if tracer:
            tracer.add_span("lsm.paths", 0.0, cluster.elapsed())

        for t in range(m - 1, 0, -1):
            date_t0 = cluster.elapsed()
            s_t = paths[:, t, :]
            intrinsic = payoff.intrinsic(s_t)
            itm = intrinsic > 0.0
            realized = cash * np.power(disc, tau - t)

            # --- per-rank local moments + simulated cost -------------------
            a_global = np.zeros((k, k))
            b_global = np.zeros(k)
            count_global = 0
            for r, (lo, hi) in enumerate(parts):
                sel = np.zeros(n, dtype=bool)
                sel[lo:hi] = itm[lo:hi]
                n_sel = int(sel.sum())
                count_global += n_sel
                if n_sel:
                    x_loc = polynomial_features(s_t[sel], self.degree,
                                                model.spots)
                    a_global += x_loc.T @ x_loc
                    b_global += x_loc.T @ realized[sel]
                cluster.compute(r, n_sel * self.work.regression_per_path * k)
            cluster.allreduce(moment_bytes)
            if tracer:
                tracer.add_span("lsm.regression", date_t0, cluster.elapsed(),
                                date=t, itm_paths=count_global)

            if count_global < self.min_regression_paths:
                continue
            # Ridge whisker for rank-deficient dates (few ITM paths).
            coef = np.linalg.solve(
                a_global + 1e-10 * np.trace(a_global) / k * np.eye(k), b_global
            )

            # --- local exercise decisions ---------------------------------
            continuation = polynomial_features(s_t[itm], self.degree,
                                               model.spots) @ coef
            exercise = np.zeros(n, dtype=bool)
            exercise[itm] = intrinsic[itm] >= continuation
            cash = np.where(exercise, intrinsic, cash)
            tau = np.where(exercise, t, tau)
            for r, (lo, hi) in enumerate(parts):
                cluster.compute(r, (hi - lo) * 2.0)

        return {"paths": paths, "cash": cash, "tau": tau, "dt": dt}

    def reduce(self, plan: ExecutionPlan, state: Any, ctx: PipelineContext,
               fault_report: Optional[RunReport]) -> List[Estimate]:
        cluster = ctx.cluster
        model, payoff = plan.job.model, plan.job.payoff
        parts = plan.scratch["parts"]
        pv = state["cash"] * np.exp(-model.rate * state["dt"] * state["tau"])
        partials = [SampleStats.from_values(pv[lo:hi]) for lo, hi in parts]
        reduce_t0 = cluster.elapsed()
        merged = cluster.reduce_data(partials, lambda a, b: a.merge(b), 24.0,
                                     root=0, topology="tree")
        if ctx.tracer:
            ctx.tracer.add_span("lsm.reduce", reduce_t0, cluster.elapsed())
        price = merged.mean
        stderr = merged.stderr
        # American floor: immediate exercise at t=0 dominates if the
        # regression-implied continuation is below intrinsic there.
        intrinsic0 = float(payoff.intrinsic(state["paths"][:, 0, :])[0])
        if intrinsic0 > price:
            price = intrinsic0
        return [Estimate(price=price, stderr=stderr)]

    def report(self, plan: ExecutionPlan, estimate: Estimate,
               ctx: PipelineContext,
               fault_report: Optional[RunReport]) -> Dict[str, Any]:
        return {
            "steps": self.steps,
            "degree": self.degree,
            "basis_size": plan.scratch["k"],
            "n_paths": self.n_paths,
        }

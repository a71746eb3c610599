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

This class is the configuration + public entry point; the staged
implementation lives in :class:`repro.engine.lsm.LSMEngine`, driven by
the shared pipeline runner (:mod:`repro.engine.runner`).
"""

from __future__ import annotations

from repro.core.work import WorkModel
from repro.engine.lsm import LSMEngine
from repro.engine.result import ParallelRunResult
from repro.engine.runner import run_engine
from repro.market.gbm import MultiAssetGBM
from repro.parallel.faults import FaultPlan, FaultPolicy
from repro.parallel.simcluster import MachineSpec
from repro.payoffs.base import Payoff
from repro.utils.validation import check_positive_int

__all__ = ["ParallelLSMPricer"]


class ParallelLSMPricer:
    """Distributed-regression LSM over the simulated machine.

    Parameters
    ----------
    n_paths : total simulated paths.
    steps : exercise dates.
    degree : regression polynomial degree.
    seed, spec, work : as in the other parallel pricers.
    faults, policy : optional fault plan / failure policy (simulated
        timeline only; values stay bit-identical and rank loss raises —
        the per-date allreduce couples every rank).
    record : keep the cluster's event trace and attach the cluster to
        ``result.meta["cluster"]`` (render with perf.gantt).
    tracer : optional :class:`~repro.obs.Tracer` (simulated timeline):
        per-rank spans via the cluster plus ``lsm.paths`` / per-date
        ``lsm.regression`` / ``lsm.reduce`` phase spans on the main track.
    metrics : optional :class:`~repro.obs.MetricsRegistry` fed by the
        shared runner (``engine.runs`` / ``engine.wall_s`` /
        ``engine.sim_s``, labeled by engine name).
    """

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
        tracer=None,
        metrics=None,
    ):
        self.n_paths = check_positive_int("n_paths", n_paths)
        self.steps = check_positive_int("steps", steps)
        self.degree = check_positive_int("degree", degree)
        self.seed = int(seed)
        self.spec = spec if spec is not None else MachineSpec()
        self.work = work if work is not None else WorkModel()
        self.min_regression_paths = check_positive_int(
            "min_regression_paths", min_regression_paths
        )
        self.record = bool(record)
        self.faults = faults
        self.policy = FaultPolicy.parse(policy)
        self.tracer = tracer
        self.metrics = metrics

    def price(
        self,
        model: MultiAssetGBM,
        payoff: Payoff,
        expiry: float,
        p: int,
    ) -> ParallelRunResult:
        """Price an American/Bermudan contract on ``p`` simulated ranks."""
        return run_engine(LSMEngine(self), model, payoff, expiry, p)

    def sweep(self, model, payoff, expiry, p_list) -> list[ParallelRunResult]:
        """Price at each P in ``p_list``."""
        return [self.price(model, payoff, expiry, p) for p in p_list]

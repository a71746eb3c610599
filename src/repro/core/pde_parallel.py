"""Parallel two-asset ADI pricer: transpose-based sweep decomposition.

Within one Peaceman–Rachford step every tridiagonal line is independent of
its neighbors, so:

* the **x-implicit** half-step distributes the ``n_y`` column systems over
  ranks (rank r solves a contiguous block of columns);
* the **y-implicit** half-step distributes the ``n_x`` row systems;
* switching between the two layouts is a **data transpose** — an
  all-to-all in which each rank pair exchanges ``n_x·n_y/P²`` grid values.

Per time step the decomposition therefore pays two all-to-alls; their cost
grows with P (pairwise model: (P−1)(α + b·β)), which gives the PDE engine
its characteristic efficiency roll-off between the embarrassing MC curve
and the latency-bound lattice curve (experiment T7).

The rank-block computations here are *actually executed* block by block
(each rank's columns solved independently) and reassembled; the integration
tests assert the assembled plane is bit-identical to the sequential
:class:`~repro.pde.ADISolver` step for every P.

This class is the configuration + public entry point; the staged
implementation lives in :class:`repro.engine.pde.PDEEngine`, driven by
the shared pipeline runner (:mod:`repro.engine.runner`).
"""

from __future__ import annotations

from repro.core.work import WorkModel
from repro.engine.pde import PDEEngine
from repro.engine.result import ParallelRunResult
from repro.engine.runner import run_engine
from repro.market.gbm import MultiAssetGBM
from repro.parallel.faults import FaultPlan, FaultPolicy
from repro.parallel.simcluster import MachineSpec
from repro.payoffs.base import Payoff
from repro.utils.validation import check_positive_int

__all__ = ["ParallelPDEPricer"]


class ParallelPDEPricer:
    """Transpose-parallel ADI valuation with simulated timing.

    Parameters
    ----------
    n_space : spatial intervals per axis (even).
    n_time : time steps.
    american : project onto the obstacle after each full step.
    spec, work : simulated machine and work models.
    faults, policy : optional fault plan / failure policy (simulated
        timeline only; values stay bit-identical and rank loss raises).
    tracer : optional :class:`~repro.obs.Tracer` (simulated timeline):
        per-rank spans via the cluster plus per-step ``pde.step`` spans
        with nested ``pde.transpose`` exchanges on the main track.
    metrics : optional :class:`~repro.obs.MetricsRegistry` fed by the
        shared runner (``engine.runs`` / ``engine.wall_s`` /
        ``engine.sim_s``, labeled by engine name).
    """

    def __init__(
        self,
        *,
        n_space: int = 200,
        n_time: int = 100,
        american: bool = False,
        spec: MachineSpec | None = None,
        work: WorkModel | None = None,
        record: bool = False,
        faults: FaultPlan | None = None,
        policy: FaultPolicy | str | None = None,
        tracer=None,
        metrics=None,
    ):
        self.n_space = check_positive_int("n_space", n_space)
        self.n_time = check_positive_int("n_time", n_time)
        self.american = bool(american)
        self.spec = spec if spec is not None else MachineSpec()
        self.work = work if work is not None else WorkModel()
        #: When set, each run's cluster keeps an event trace (result meta
        #: key "cluster"; render with perf.gantt).
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
        """Value a 2-asset contract on ``p`` simulated ranks."""
        return run_engine(PDEEngine(self), model, payoff, expiry, p)

    def sweep(self, model, payoff, expiry, p_list) -> list[ParallelRunResult]:
        """Price at each P in ``p_list``."""
        return [self.price(model, payoff, expiry, p) for p in p_list]

"""Parallel multidimensional lattice pricer: level-synchronous slab
decomposition of the BEG backward induction.

At level ``t`` the value tensor has ``(t+1)^d`` nodes. Its leading axis is
block-partitioned into (at most) P contiguous slabs; each rank updates its
slab with :meth:`BEGLattice.step_rows`, which needs exactly one halo plane
(``(t+2)^{d−1}`` values) from the next rank — the corner-stencil offsets
along the sliced axis are only 0 or 1. One halo exchange per level is the
entire communication; the level-synchronous structure is also the
algorithm's weakness: near the root, levels hold fewer rows than ranks, so
extra ranks idle (charged as idle time), and per-level latency is paid ``n``
times. That is why lattice speedup saturates (experiments F3/T3) while MC's
does not — the central comparison of the paper's evaluation.

American exercise adds a per-level intrinsic evaluation on each slab
(charged as extra work) and a max; values remain bit-identical to the
sequential sweep, which the integration tests assert for every P.

This class is the configuration + public entry point; the staged
implementation lives in :class:`repro.engine.lattice.LatticeEngine`,
driven by the shared pipeline runner (:mod:`repro.engine.runner`).
"""

from __future__ import annotations

from repro.core.work import WorkModel
from repro.engine.lattice import LatticeEngine
from repro.engine.result import ParallelRunResult
from repro.engine.runner import run_engine
from repro.market.gbm import MultiAssetGBM
from repro.parallel.faults import FaultPlan, FaultPolicy
from repro.parallel.simcluster import MachineSpec
from repro.payoffs.base import Payoff
from repro.utils.validation import check_positive_int

__all__ = ["ParallelLatticePricer"]


class ParallelLatticePricer:
    """Slab-parallel BEG lattice valuation with simulated timing.

    Parameters
    ----------
    steps : lattice time steps ``n``.
    american : apply early exercise at every level.
    spec : simulated machine parameters.
    work : work-unit model.
    faults, policy : optional fault plan / failure policy. Values stay
        bit-identical (the arithmetic is the sequential reference);
        faults stretch and extend the simulated timeline only, and a
        permanently lost rank raises (this engine cannot degrade).
    tracer : optional :class:`~repro.obs.Tracer` (simulated timeline):
        per-rank spans via the cluster plus ``lattice.level`` /
        ``lattice.halo`` phase spans on the main track.
    metrics : optional :class:`~repro.obs.MetricsRegistry` fed by the
        shared runner (``engine.runs`` / ``engine.wall_s`` /
        ``engine.sim_s``, labeled by engine name).
    """

    def __init__(
        self,
        steps: int,
        *,
        american: bool = False,
        spec: MachineSpec | None = None,
        work: WorkModel | None = None,
        record: bool = False,
        faults: FaultPlan | None = None,
        policy: FaultPolicy | str | None = None,
        tracer=None,
        metrics=None,
    ):
        self.steps = check_positive_int("steps", steps)
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
        """Value ``payoff`` on ``p`` simulated ranks."""
        return run_engine(LatticeEngine(self), model, payoff, expiry, p)

    def sweep(self, model, payoff, expiry, p_list) -> list[ParallelRunResult]:
        """Price at each P in ``p_list``."""
        return [self.price(model, payoff, expiry, p) for p in p_list]

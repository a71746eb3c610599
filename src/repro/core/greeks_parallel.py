"""Parallel hedge-parameter (Greeks) computation.

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

This class is the configuration + public entry point; the staged
implementation lives in :class:`repro.engine.greeks.GreeksEngine`, driven
by the shared pipeline runner (:mod:`repro.engine.runner`) — which also
makes the risk sweep backend-mappable (thread/process pools) like the MC
pricer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.work import WorkModel
from repro.engine.greeks import GreeksEngine
from repro.engine.result import ParallelRunResult
from repro.engine.runner import run_pipeline
from repro.market.gbm import MultiAssetGBM
from repro.parallel.backends import ExecutionBackend
from repro.parallel.simcluster import MachineSpec
from repro.payoffs.base import Payoff
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


class ParallelMCGreeks:
    """CRN bump-and-revalue Greeks over the simulated machine.

    Parameters
    ----------
    n_paths : paths per valuation (each of the ``1+4d`` bumped models
        replays the same draws).
    rel_bump, vol_bump : bump sizes as in :func:`repro.mc.mc_greeks_bump`.
    backend : real execution backend (default serial); the per-rank bump
        revaluations are backend-mapped like the MC pricer's rank tasks.
    chunksize : rank tasks per backend dispatch (transport only).
    record, tracer, metrics : shared-runner middleware, as in the other
        parallel pricers.
    scheduler : optional execute-stage scheduler (instance or strategy
        name); placement only — the Greeks are scheduler-invariant
        bitwise. Default ``None``: the historical static path.
    """

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
        tracer=None,
        metrics=None,
        scheduler=None,
    ):
        self.n_paths = check_positive_int("n_paths", n_paths)
        self.rel_bump = check_positive("rel_bump", rel_bump)
        self.vol_bump = check_positive("vol_bump", vol_bump)
        self.seed = int(seed)
        self.spec = spec if spec is not None else MachineSpec()
        self.work = work if work is not None else WorkModel()
        self.backend = backend
        self.chunksize = chunksize
        self.record = bool(record)
        self.tracer = tracer
        self.metrics = metrics
        #: Execute-stage scheduler (None = static), as in ParallelMCPricer.
        self.scheduler = scheduler

    def _bumped_models(self, model: MultiAssetGBM):
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

    def price(
        self,
        model: MultiAssetGBM,
        payoff: Payoff,
        expiry: float,
        p: int,
    ) -> ParallelRunResult:
        """Run the risk sweep; returns just the base-price run result."""
        return self.compute(model, payoff, expiry, p).run

    def compute(
        self,
        model: MultiAssetGBM,
        payoff: Payoff,
        expiry: float,
        p: int,
    ) -> ParallelGreeksResult:
        """Run the risk sweep on ``p`` simulated ranks."""
        run, estimate = run_pipeline(GreeksEngine(self), model, payoff,
                                     expiry, p)
        return ParallelGreeksResult(
            price=run.price, stderr=run.stderr,
            delta=estimate.extras["delta"], gamma=estimate.extras["gamma"],
            vega=estimate.extras["vega"], run=run,
            meta={"rel_bump": self.rel_bump, "vol_bump": self.vol_bump},
        )

"""Monte Carlo pricing engine.

The sequential engine (:class:`MonteCarloEngine`) prices any
:class:`~repro.payoffs.Payoff` under a :class:`~repro.market.MultiAssetGBM`
by exact lognormal sampling. Estimators are built from *mergeable partial
statistics* (:class:`SampleStats` and friends) — the same objects the
parallel pricer reduces across ranks, so sequential and parallel runs are
bit-identical given the same substreams.

Variance-reduction techniques (antithetic, control variates, stratified,
randomized QMC) are strategy objects passed to the engine; American
exercise is handled by Longstaff–Schwartz regression (:mod:`repro.mc.american`).
"""

from repro.mc.statistics import SampleStats, CrossStats, StrataStats
from repro.mc.result import MCResult
from repro.mc.engine import MonteCarloEngine
from repro.mc.variance_reduction import (
    Technique,
    PlainMC,
    Antithetic,
    ControlVariate,
    Stratified,
)
from repro.mc.qmc import QMCSobol
from repro.mc.direct import DirectSampling
from repro.mc.importance import ImportanceSampling, drift_to_strike
from repro.mc.multilevel import MLMCResult, mlmc_price
from repro.mc.greeks import mc_greeks_bump, mc_delta_pathwise
from repro.mc.american import LongstaffSchwartz, lsm_price
from repro.mc.hedging import HedgeResult, simulate_delta_hedge

__all__ = [
    "SampleStats",
    "CrossStats",
    "StrataStats",
    "MCResult",
    "MonteCarloEngine",
    "Technique",
    "PlainMC",
    "Antithetic",
    "ControlVariate",
    "Stratified",
    "QMCSobol",
    "DirectSampling",
    "ImportanceSampling",
    "drift_to_strike",
    "MLMCResult",
    "mlmc_price",
    "mc_greeks_bump",
    "mc_delta_pathwise",
    "LongstaffSchwartz",
    "lsm_price",
    "HedgeResult",
    "simulate_delta_hedge",
]

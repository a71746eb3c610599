"""Contract/model generators (all deterministic in their seed)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.market.correlation import random_correlation
from repro.market.gbm import MultiAssetGBM
from repro.payoffs.base import Payoff
from repro.payoffs.basket import BasketCall, GeometricBasketCall
from repro.payoffs.rainbow import CallOnMax, SpreadCall
from repro.payoffs.vanilla import Call
from repro.rng import Philox4x32
from repro.utils.validation import check_positive_int

__all__ = ["Workload", "basket_workload", "rainbow_workload", "spread_workload",
           "random_portfolio", "strike_strip"]


@dataclass(frozen=True)
class Workload:
    """A (model, payoff, expiry) triple with a descriptive name."""

    name: str
    model: MultiAssetGBM
    payoff: Payoff
    expiry: float

    @property
    def dim(self) -> int:
        return self.model.dim


def basket_workload(dim: int, *, geometric: bool = False) -> Workload:
    """Equal-weight d-asset at-the-money basket call, 1 year, on an
    equicorrelated market (spot 100, vol 25 %, rate 5 %, ρ = 0.3) — the
    canonical multidimensional MC workload (experiments T2/F1/F2/F6)."""
    d = check_positive_int("dim", dim)
    model = MultiAssetGBM.equicorrelated(d, 100.0, 0.25, 0.05, 0.3)
    weights = [1.0 / d] * d
    payoff = (GeometricBasketCall if geometric else BasketCall)(weights, 100.0)
    kind = "geometric" if geometric else "arithmetic"
    return Workload(f"{kind}-basket-d{d}", model, payoff, 1.0)


def rainbow_workload() -> Workload:
    """Two-asset max-call, K = 100, 1 year, ρ = 0.4 (Stulz baseline
    available) — the lattice workload (experiments F3/T3)."""
    model = MultiAssetGBM([100.0, 95.0], [0.2, 0.3], 0.05,
                          correlation=np.array([[1.0, 0.4], [0.4, 1.0]]))
    return Workload("rainbow-max-call", model, CallOnMax(100.0), 1.0)


def spread_workload() -> Workload:
    """Two-asset spread call, K = 5, 1 year, ρ = 0.5 (Kirk baseline) — the
    PDE workload (T7)."""
    model = MultiAssetGBM([100.0, 96.0], [0.25, 0.2], 0.05,
                          correlation=np.array([[1.0, 0.5], [0.5, 1.0]]))
    return Workload("spread-call", model, SpreadCall(5.0), 1.0)


def strike_strip(n_strikes: int, *, dim: int = 1,
                 vol: float = 0.2) -> list[Workload]:
    """A 1-year strike ladder from 80 to 120 on **one shared market model**
    (spot 100, rate 5 %, ρ = 0.3) — the batchable book.

    Every workload shares the same model instance and expiry and differs
    only in its payoff strike (a vanilla call for ``dim=1``, an
    equal-weight basket call otherwise), so a request stream built from it
    with one engine config groups into a single
    :class:`~repro.batch.strip.ContractStrip`. This is the shape the
    batched throughput gate (benchmark F15d) prices.
    """
    n = check_positive_int("n_strikes", n_strikes)
    d = check_positive_int("dim", dim)
    if d == 1:
        model = MultiAssetGBM.single(100.0, vol, 0.05)
    else:
        model = MultiAssetGBM.equicorrelated(d, 100.0, vol, 0.05, 0.3)
    strikes = np.linspace(80.0, 120.0, n)
    out: list[Workload] = []
    for i, strike in enumerate(strikes):
        if d == 1:
            payoff: Payoff = Call(float(strike))
        else:
            payoff = BasketCall([1.0 / d] * d, float(strike))
        out.append(Workload(f"strip-{i}-k{float(strike):g}", model, payoff,
                            1.0))
    return out


def random_portfolio(n_contracts: int, *, dim: int = 4,
                     seed: int = 0) -> list[Workload]:
    """A seeded portfolio of 1-year basket calls with randomized spots,
    vols, strikes and a random (valid) correlation matrix per contract.

    Used by the throughput example and the load-imbalance tests: contract
    costs are homogeneous, so cyclic vs block decomposition should tie.
    """
    n = check_positive_int("n_contracts", n_contracts)
    d = check_positive_int("dim", dim)
    gen = Philox4x32(seed, stream=0xF00D)
    out: list[Workload] = []
    for i in range(n):
        u = gen.uniforms(3 * d + 1)
        spots = 80.0 + 40.0 * u[:d]
        vols = 0.15 + 0.25 * u[d : 2 * d]
        weights_raw = 0.5 + u[2 * d : 3 * d]
        strike = float(80.0 + 40.0 * u[3 * d])
        corr = random_correlation(d, seed=seed * 1000 + i)
        model = MultiAssetGBM(spots, vols, 0.05, correlation=corr)
        payoff = BasketCall(weights_raw, strike)
        out.append(Workload(f"portfolio-{i}", model, payoff, 1.0))
    return out

"""Discrete delta-hedging simulation — the end-to-end consumer of prices
and Greeks.

Simulates selling a European option, hedging it with the analytic (or a
deliberately wrong) delta at ``rebalances`` equally spaced dates, and
carrying the residual at the risk-free rate. Classical facts the tests and
benchmark F11 verify:

* with the *correct* vol, the mean P&L → 0 and its standard deviation
  shrinks like ``(number of rebalances)^{-1/2}`` (Boyle & Emanuel 1980);
* hedging with a *wrong* vol produces a systematic P&L whose sign follows
  the gamma-weighted variance gap: short-gamma hedgers lose when realized
  vol exceeds the hedge vol.

Only the hedger's delta is model-based; the market paths are exact GBM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.analytic.black_scholes import bs_price
from repro.errors import ValidationError
from repro.market.gbm import MultiAssetGBM
from repro.rng import Philox4x32
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["HedgeResult", "simulate_delta_hedge"]


@dataclass(frozen=True)
class HedgeResult:
    """P&L distribution of a discretely delta-hedged short option."""

    mean_pnl: float
    std_pnl: float
    stderr_mean: float
    rebalances: int
    n_paths: int
    premium: float
    meta: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return (f"hedge P&L {self.mean_pnl:+.4f} ± {self.stderr_mean:.4f} "
                f"(std {self.std_pnl:.4f}, {self.rebalances} rebalances)")


def simulate_delta_hedge(
    model: MultiAssetGBM,
    strike: float,
    expiry: float,
    rebalances: int,
    n_paths: int,
    *,
    hedge_vol: float | None = None,
    seed: int = 0,
) -> HedgeResult:
    """Simulate a short-call delta hedge under a 1-asset GBM market.

    Parameters
    ----------
    model : single-asset market (its vol drives the *realized* paths).
    hedge_vol : vol used for the hedger's deltas (defaults to the model's
        true vol — the correctly specified hedge).
    rebalances : number of hedge adjustments over the option's life.
    """
    if model.dim != 1:
        raise ValidationError("the hedging simulation covers single-asset options")
    check_positive("strike", strike)
    check_positive("expiry", expiry)
    m = check_positive_int("rebalances", rebalances)
    n = check_positive_int("n_paths", n_paths)
    true_vol = float(model.vols[0])
    h_vol = true_vol if hedge_vol is None else check_positive("hedge_vol", hedge_vol)
    rate = model.rate
    dividend = float(model.dividends[0])

    gen = Philox4x32(seed, stream=0x4ED6)
    paths = model.sample_paths(gen, n, expiry, m)[:, :, 0]  # (n, m+1)
    dt = expiry / m
    grow = math.exp(rate * dt)

    premium = bs_price(float(model.spots[0]), strike, h_vol, rate, expiry,
                       dividend=dividend)

    # Sell the option, receive the premium, start the hedge.
    cash = np.full(n, premium)
    position = np.zeros(n)
    for k in range(m):
        tau = expiry - k * dt
        s_now = paths[:, k]
        # Vectorized BSM delta at the hedger's vol.
        sqrt_tau = math.sqrt(tau)
        d1 = (np.log(s_now / strike) + (rate - dividend + 0.5 * h_vol**2) * tau) \
            / (h_vol * sqrt_tau)
        from repro.utils.numerics import norm_cdf

        delta = np.asarray(norm_cdf(d1))
        trade = delta - position
        cash -= trade * s_now
        position = delta
        cash *= grow
        if dividend:
            cash += position * s_now * (math.exp(dividend * dt) - 1.0)
    s_final = paths[:, -1]
    intrinsic = np.maximum(s_final - strike, 0.0)
    pnl = cash + position * s_final - intrinsic

    return HedgeResult(
        mean_pnl=float(pnl.mean()),
        std_pnl=float(pnl.std(ddof=1)),
        stderr_mean=float(pnl.std(ddof=1) / math.sqrt(n)),
        rebalances=m,
        n_paths=n,
        premium=premium,
        meta={"true_vol": true_vol, "hedge_vol": h_vol, "option": "call"},
    )

"""Margrabe (1978) exchange option: the right to swap asset 2 for asset 1.

Payoff ``max(S₁(T) − S₂(T), 0)``. Taking asset 2 as numéraire reduces the
problem to Black–Scholes with zero strike drift and effective volatility
``σ² = σ₁² − 2ρσ₁σ₂ + σ₂²``; the rate drops out entirely.
"""

from __future__ import annotations

import math

from repro.utils.numerics import norm_cdf
from repro.utils.validation import check_in_range, check_positive

__all__ = ["margrabe_price"]


def margrabe_price(
    spot1: float,
    spot2: float,
    vol1: float,
    vol2: float,
    rho: float,
    expiry: float,
    *,
    dividend1: float = 0.0,
    dividend2: float = 0.0,
) -> float:
    """Exact price of ``max(S₁(T) − S₂(T), 0)`` under correlated GBM."""
    check_positive("spot1", spot1)
    check_positive("spot2", spot2)
    check_positive("vol1", vol1)
    check_positive("vol2", vol2)
    check_in_range("rho", rho, -1.0, 1.0)
    check_positive("expiry", expiry)
    sigma_sq = vol1 * vol1 - 2.0 * rho * vol1 * vol2 + vol2 * vol2
    if sigma_sq <= 0.0:
        # Perfectly correlated identical-vol legs: the spread is deterministic.
        fwd1 = spot1 * math.exp(-dividend1 * expiry)
        fwd2 = spot2 * math.exp(-dividend2 * expiry)
        return max(fwd1 - fwd2, 0.0)
    sigma = math.sqrt(sigma_sq)
    v_sqrt_t = sigma * math.sqrt(expiry)
    d1 = (math.log(spot1 / spot2) + (dividend2 - dividend1 + 0.5 * sigma_sq) * expiry) / v_sqrt_t
    d2 = d1 - v_sqrt_t
    return (
        spot1 * math.exp(-dividend1 * expiry) * norm_cdf(d1)
        - spot2 * math.exp(-dividend2 * expiry) * norm_cdf(d2)
    )


"""Closed form for power options under GBM.

``ln S_T ~ N(m, s²)`` with ``m = ln S₀ + (r − q − σ²/2)T``, ``s = σ√T``, so
``ln S_T^p ~ N(pm, p²s²)`` and the Black formula applies to the lognormal
``S^p`` directly.
"""

from __future__ import annotations

import math

from repro.errors import ValidationError
from repro.utils.numerics import norm_cdf
from repro.utils.validation import check_positive

__all__ = ["power_option_price"]


def power_option_price(
    spot: float,
    strike: float,
    power: float,
    vol: float,
    rate: float,
    expiry: float,
    *,
    option: str = "call",
) -> float:
    """Exact price of ``max(±(S_T^p − K), 0)`` under GBM."""
    check_positive("spot", spot)
    check_positive("strike", strike)
    check_positive("power", power)
    check_positive("vol", vol)
    check_positive("expiry", expiry)
    if option not in ("call", "put"):
        raise ValidationError(f"option must be 'call' or 'put', got {option!r}")
    m = math.log(spot) + (rate - 0.5 * vol * vol) * expiry
    s = vol * math.sqrt(expiry)
    pm = power * m
    ps = power * s
    df = math.exp(-rate * expiry)
    forward_p = math.exp(pm + 0.5 * ps * ps)  # E[S^p]
    d2 = (pm - math.log(strike)) / ps
    d1 = d2 + ps
    if option == "call":
        return df * (forward_p * norm_cdf(d1) - strike * norm_cdf(d2))
    return df * (strike * norm_cdf(-d2) - forward_p * norm_cdf(-d1))

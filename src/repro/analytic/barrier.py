"""Reiner–Rubinstein (1991) closed forms for continuously monitored single
barrier calls without rebate (Haug's A–D terms).

Used to validate the Monte Carlo barrier pricer: a discretely monitored MC
estimate converges to these values as the monitoring frequency grows
(modulo the Broadie–Glasserman–Kou √Δt barrier displacement, which the
tests absorb in their tolerance).
"""

from __future__ import annotations

import math

from repro.errors import ValidationError
from repro.utils.numerics import norm_cdf
from repro.utils.validation import check_positive

__all__ = ["barrier_price"]

_KINDS = ("up-and-out", "up-and-in", "down-and-out", "down-and-in")


def barrier_price(
    spot: float,
    strike: float,
    barrier: float,
    vol: float,
    rate: float,
    expiry: float,
    *,
    kind: str,
) -> float:
    """Price a continuously monitored single-barrier call (no rebate).

    ``kind`` ∈ {"up-and-out", "up-and-in", "down-and-out", "down-and-in"}.

    If the spot already breaches the barrier, the contract resolves
    immediately: *out* options are worthless, *in* options are worth the
    vanilla price.
    """
    check_positive("spot", spot)
    check_positive("strike", strike)
    check_positive("barrier", barrier)
    check_positive("vol", vol)
    check_positive("expiry", expiry)
    if kind not in _KINDS:
        raise ValidationError(f"kind must be one of {_KINDS}, got {kind!r}")

    from repro.analytic.black_scholes import bs_price

    direction, knock = kind.split("-")[0], kind.split("-")[-1]
    breached = spot >= barrier if direction == "up" else spot <= barrier
    if breached:
        if knock == "out":
            return 0.0
        return bs_price(spot, strike, vol, rate, expiry)

    sigma_sq = vol * vol
    sqrt_t = math.sqrt(expiry)
    v_sqrt_t = vol * sqrt_t
    mu = (rate - 0.5 * sigma_sq) / sigma_sq
    h_over_s = barrier / spot
    x1 = math.log(spot / strike) / v_sqrt_t + (1.0 + mu) * v_sqrt_t
    x2 = math.log(spot / barrier) / v_sqrt_t + (1.0 + mu) * v_sqrt_t
    y1 = math.log(barrier * barrier / (spot * strike)) / v_sqrt_t + (1.0 + mu) * v_sqrt_t
    y2 = math.log(barrier / spot) / v_sqrt_t + (1.0 + mu) * v_sqrt_t

    eta = -1.0 if direction == "up" else 1.0

    k_disc = strike * math.exp(-rate * expiry)

    def _a_like(xx: float) -> float:
        return spot * norm_cdf(xx) - k_disc * norm_cdf(xx - v_sqrt_t)

    def _c_like(yy: float) -> float:
        return (
            spot * h_over_s ** (2.0 * (mu + 1.0)) * norm_cdf(eta * yy)
            - k_disc * h_over_s ** (2.0 * mu) * norm_cdf(eta * yy - eta * v_sqrt_t)
        )

    term_a = _a_like(x1)
    term_b = _a_like(x2)
    term_c = _c_like(y1)
    term_d = _c_like(y2)

    above = strike > barrier
    if kind == "down-and-in":
        return term_c if above else term_a - term_b + term_d
    if kind == "up-and-in":
        return term_a if above else term_b - term_c + term_d
    if kind == "down-and-out":
        return term_a - term_c if above else term_b - term_d
    # up-and-out
    return 0.0 if above else term_a - term_b + term_c - term_d

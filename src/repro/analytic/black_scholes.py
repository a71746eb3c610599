"""Black–Scholes–Merton closed forms: price, Greeks, implied volatility."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConvergenceError, ValidationError
from repro.utils.numerics import norm_cdf, norm_pdf
from repro.utils.validation import check_positive

__all__ = ["bs_price", "bs_greeks", "bs_implied_vol", "BSGreeks"]

_IV_TOL = 1e-10
_IV_MAX_ITER = 100


def _d1_d2(spot: float, strike: float, vol: float, rate: float, dividend: float,
           expiry: float) -> tuple[float, float]:
    v_sqrt_t = vol * math.sqrt(expiry)
    d1 = (math.log(spot / strike) + (rate - dividend + 0.5 * vol * vol) * expiry) / v_sqrt_t
    return d1, d1 - v_sqrt_t


def bs_price(
    spot: float,
    strike: float,
    vol: float,
    rate: float,
    expiry: float,
    *,
    dividend: float = 0.0,
    option: str = "call",
) -> float:
    """Black–Scholes–Merton price of a European call or put.

    Continuous dividend yield ``dividend``; at ``expiry <= 0`` the intrinsic
    value is returned (useful as a terminal condition).
    """
    check_positive("spot", spot)
    check_positive("strike", strike)
    check_positive("vol", vol)
    if option not in ("call", "put"):
        raise ValidationError(f"option must be 'call' or 'put', got {option!r}")
    if expiry <= 0.0:
        intrinsic = spot - strike if option == "call" else strike - spot
        return max(intrinsic, 0.0)
    d1, d2 = _d1_d2(spot, strike, vol, rate, dividend, expiry)
    df_r = math.exp(-rate * expiry)
    df_q = math.exp(-dividend * expiry)
    if option == "call":
        return spot * df_q * norm_cdf(d1) - strike * df_r * norm_cdf(d2)
    return strike * df_r * norm_cdf(-d2) - spot * df_q * norm_cdf(-d1)


@dataclass(frozen=True)
class BSGreeks:
    """First- and second-order sensitivities of a BSM option."""

    price: float
    delta: float
    gamma: float
    vega: float
    theta: float
    rho: float


def bs_greeks(
    spot: float,
    strike: float,
    vol: float,
    rate: float,
    expiry: float,
    *,
    option: str = "call",
) -> BSGreeks:
    """Analytic BSM Greeks (per unit of underlying, vol, year, and rate)."""
    check_positive("expiry", expiry)
    price = bs_price(spot, strike, vol, rate, expiry, option=option)
    d1, d2 = _d1_d2(spot, strike, vol, rate, 0.0, expiry)
    sqrt_t = math.sqrt(expiry)
    df_r = math.exp(-rate * expiry)
    pdf_d1 = norm_pdf(d1)
    gamma = pdf_d1 / (spot * vol * sqrt_t)
    vega = spot * pdf_d1 * sqrt_t
    if option == "call":
        delta = norm_cdf(d1)
        theta = (
            -spot * pdf_d1 * vol / (2.0 * sqrt_t)
            - rate * strike * df_r * norm_cdf(d2)
        )
        rho = strike * expiry * df_r * norm_cdf(d2)
    else:
        delta = -norm_cdf(-d1)
        theta = (
            -spot * pdf_d1 * vol / (2.0 * sqrt_t)
            + rate * strike * df_r * norm_cdf(-d2)
        )
        rho = -strike * expiry * df_r * norm_cdf(-d2)
    return BSGreeks(price=price, delta=delta, gamma=gamma, vega=vega, theta=theta, rho=rho)


def bs_implied_vol(
    price: float,
    spot: float,
    strike: float,
    rate: float,
    expiry: float,
) -> float:
    """Implied volatility of a call by safeguarded Newton (bisection fallback).

    Raises :class:`ConvergenceError` if the target price is outside the
    no-arbitrage band or the iteration stalls.
    """
    check_positive("expiry", expiry)
    lower = max(spot - strike * math.exp(-rate * expiry), 0.0)
    upper = spot
    if not (lower - 1e-12 <= price <= upper + 1e-12):
        raise ConvergenceError(
            f"target price {price} violates no-arbitrage bounds [{lower:.6g}, {upper:.6g}]"
        )
    # Brenner–Subrahmanyam seed, clipped to a sane band.
    sigma = max(min(math.sqrt(2.0 * math.pi / expiry) * price / max(spot, 1e-12), 3.0), 1e-3)
    lo, hi = 1e-8, 10.0
    for _ in range(_IV_MAX_ITER):
        p = bs_price(spot, strike, sigma, rate, expiry)
        diff = p - price
        if abs(diff) < _IV_TOL:
            return sigma
        if diff > 0:
            hi = sigma
        else:
            lo = sigma
        d1, _ = _d1_d2(spot, strike, sigma, rate, 0.0, expiry)
        vega = spot * norm_pdf(d1) * math.sqrt(expiry)
        if vega > 1e-12:
            step = sigma - diff / vega
            sigma = step if lo < step < hi else 0.5 * (lo + hi)
        else:
            sigma = 0.5 * (lo + hi)
    raise ConvergenceError(
        f"implied vol did not converge to {_IV_TOL} in {_IV_MAX_ITER} iterations",
        iterations=_IV_MAX_ITER,
    )

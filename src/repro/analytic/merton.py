"""Merton's (1976) closed-form series for European options under jump
diffusion.

Conditioning on the jump count ``k`` makes the terminal price lognormal, so

    V = Σ_{k≥0}  e^{−λ'T} (λ'T)^k / k!  ·  BS(S, K, σ_k, r_k, T),

with ``λ' = λ(1+κ)``, ``σ_k² = σ² + k σ_J²/T`` and
``r_k = r − λκ + k·ln(1+κ)/T``. The series is truncated once the Poisson
tail weight is negligible. This is the accuracy baseline for the Merton MC
sampler (experiment T8).
"""

from __future__ import annotations

import math

from repro.analytic.black_scholes import bs_price
from repro.errors import ValidationError
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["merton_price"]

# Series truncation: stop once the Poisson weights summed reach 1 − _TOL.
_TOL = 1e-12
_MAX_TERMS = 200


def merton_price(
    spot: float,
    strike: float,
    vol: float,
    rate: float,
    expiry: float,
    *,
    jump_intensity: float,
    jump_mean: float,
    jump_vol: float,
    option: str = "call",
) -> float:
    """European option price under Merton jump diffusion (series form)."""
    check_positive("spot", spot)
    check_positive("strike", strike)
    check_positive("vol", vol)
    check_positive("expiry", expiry)
    check_non_negative("jump_intensity", jump_intensity)
    check_non_negative("jump_vol", jump_vol)
    if option not in ("call", "put"):
        raise ValidationError(f"option must be 'call' or 'put', got {option!r}")

    lam = jump_intensity
    if lam == 0.0:
        return bs_price(spot, strike, vol, rate, expiry, option=option)
    kappa = math.exp(jump_mean + 0.5 * jump_vol**2) - 1.0
    lam_prime_t = lam * (1.0 + kappa) * expiry
    log_one_plus_kappa = math.log1p(kappa)

    total = 0.0
    weight = math.exp(-lam_prime_t)  # k = 0 Poisson weight
    cumulative = 0.0
    for k in range(_MAX_TERMS):
        if k > 0:
            weight *= lam_prime_t / k
        cumulative += weight
        sigma_k = math.sqrt(vol * vol + k * jump_vol * jump_vol / expiry)
        r_k = rate - lam * kappa + k * log_one_plus_kappa / expiry
        total += weight * bs_price(spot, strike, sigma_k, r_k, expiry,
                                   option=option)
        if cumulative > 1.0 - _TOL and k > lam_prime_t:
            break
    return total

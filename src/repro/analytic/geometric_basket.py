"""Closed form for geometric-basket options under multi-asset GBM.

A weighted geometric average of correlated lognormals is itself lognormal:
with ``G(T) = Π S_i(T)^{w_i}`` (weights summing to one),

    log G(T) ~ N(m, v²),
    m  = Σ w_i [ log S_i(0) + (r − q_i − σ_i²/2) T ],
    v² = T · wᵀ Σ w,   Σ_ij = ρ_ij σ_i σ_j,

so the option prices by the Black formula on the lognormal ``G``. This is
the exact multidimensional baseline for experiment T1 and the control
variate for arithmetic baskets in T5.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ValidationError
from repro.utils.numerics import norm_cdf
from repro.utils.validation import check_positive

__all__ = ["geometric_basket_price", "geometric_basket_moments"]


def geometric_basket_moments(model, weights, expiry: float) -> tuple[float, float]:
    """Return ``(m, v)``: mean and std-dev of ``log G(T)`` under the model."""
    check_positive("expiry", expiry)
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.size != model.dim:
        raise ValidationError(
            f"weights length {w.size} does not match model dim {model.dim}"
        )
    if np.any(w < 0) or w.sum() <= 0:
        raise ValidationError("weights must be non-negative with positive sum")
    w = w / w.sum()
    m = float(np.dot(w, np.log(model.spots) + model.drifts * expiry))
    cov = model.correlation * np.outer(model.vols, model.vols)
    v2 = float(w @ cov @ w) * expiry
    return m, math.sqrt(max(v2, 0.0))


def geometric_basket_price(
    model,
    weights,
    strike: float,
    expiry: float,
) -> float:
    """Exact price of a European geometric-basket call.

    Parameters
    ----------
    model : :class:`~repro.market.MultiAssetGBM`
    weights : basket weights (normalized internally).
    strike, expiry : contract terms.
    """
    check_positive("strike", strike)
    m, v = geometric_basket_moments(model, weights, expiry)
    df = math.exp(-model.rate * expiry)
    forward = math.exp(m + 0.5 * v * v)
    if v <= 0.0:
        return df * max(forward - strike, 0.0)
    d1 = (m - math.log(strike) + v * v) / v
    d2 = d1 - v
    return df * (forward * norm_cdf(d1) - strike * norm_cdf(d2))

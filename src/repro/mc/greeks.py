"""Monte Carlo Greeks.

Two estimators, each validated against the analytic BSM Greeks in the test
suite:

* :func:`mc_greeks_bump` — central finite differences with **common random
  numbers**: every revaluation reuses the same Gaussian draws (via cloned
  generators), which cancels the O(σ/√N) noise of independent revaluations
  and leaves the O(h²) bias of the central difference.
* :func:`mc_delta_pathwise` — the pathwise (infinitesimal-perturbation)
  delta for contracts whose payoff is a.e. differentiable in the spot:
  vanilla and basket calls/puts. Unbiased and needs no bump.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.market.gbm import MultiAssetGBM
from repro.mc.variance_reduction import PlainMC
from repro.payoffs.base import Payoff
from repro.payoffs.basket import BasketCall, BasketPut
from repro.payoffs.vanilla import Call, Put
from repro.rng import Philox4x32
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["MCGreeks", "mc_greeks_bump", "mc_delta_pathwise"]

_REL_BUMP = 0.01  # spot bump, relative to S_i(0)
_VOL_BUMP = 0.01  # volatility bump, absolute


@dataclass(frozen=True)
class MCGreeks:
    """Bump-and-revalue Greeks for a multi-asset contract."""

    price: float
    stderr: float
    delta: np.ndarray
    gamma: np.ndarray
    vega: np.ndarray
    n_paths: int
    meta: dict = field(default_factory=dict)


def mc_greeks_bump(
    model: MultiAssetGBM,
    payoff: Payoff,
    expiry: float,
    n_paths: int,
    *,
    seed: int = 0,
) -> MCGreeks:
    """Price, per-asset delta/gamma and per-asset vega by CRN bumping.

    The spot bump is relative, ``h_i = 0.01 · S_i(0)``; the volatility bump
    is 0.01 absolute. Every valuation re-runs the same generator clone, so
    differences are smooth in the bump.
    """
    check_positive("expiry", expiry)
    check_positive_int("n_paths", n_paths)
    tech = PlainMC()
    master = Philox4x32(seed, stream=0xD)

    def value(m: MultiAssetGBM) -> tuple[float, float]:
        mean, stderr, _ = tech.estimate(m, payoff, expiry, n_paths,
                                        master.clone())
        return mean, stderr

    price, stderr = value(model)
    d = model.dim
    delta = np.empty(d)
    gamma = np.empty(d)
    vega = np.empty(d)
    for i in range(d):
        h = _REL_BUMP * float(model.spots[i])
        up_spots = model.spots.copy()
        dn_spots = model.spots.copy()
        up_spots[i] += h
        dn_spots[i] -= h
        p_up, _ = value(model.with_spots(up_spots))
        p_dn, _ = value(model.with_spots(dn_spots))
        delta[i] = (p_up - p_dn) / (2.0 * h)
        gamma[i] = (p_up - 2.0 * price + p_dn) / (h * h)

        up_vols = model.vols.copy()
        dn_vols = model.vols.copy()
        up_vols[i] += _VOL_BUMP
        dn_vols[i] = max(dn_vols[i] - _VOL_BUMP, 1e-8)
        v_up, _ = value(model.with_vols(up_vols))
        v_dn, _ = value(model.with_vols(dn_vols))
        vega[i] = (v_up - v_dn) / (float(up_vols[i]) - float(dn_vols[i]))
    return MCGreeks(
        price=price,
        stderr=stderr,
        delta=delta,
        gamma=gamma,
        vega=vega,
        n_paths=n_paths,
        meta={"rel_bump": _REL_BUMP, "vol_bump": _VOL_BUMP, "technique": tech.name},
    )


def mc_delta_pathwise(
    model: MultiAssetGBM,
    payoff: Payoff,
    expiry: float,
    n_paths: int,
    *,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Pathwise delta vector and its standard errors, shape ``(d,)`` each.

    Supported payoffs: :class:`Call`, :class:`Put`, :class:`BasketCall`,
    :class:`BasketPut`. For GBM, ``∂S_i(T)/∂S_i(0) = S_i(T)/S_i(0)``, so

        Δ_i = e^{−rT} · E[ 1{exercise} · ∂payoff/∂S_i(T) · S_i(T)/S_i(0) ].
    """
    check_positive("expiry", expiry)
    check_positive_int("n_paths", n_paths)
    s_term = model.sample_terminal(Philox4x32(seed, stream=0xE), n_paths, expiry)
    df = float(np.exp(-model.rate * expiry))
    ratio = s_term / model.spots[None, :]

    if isinstance(payoff, Call):
        indicator = (s_term[:, payoff.asset] > payoff.strike).astype(float)
        grad = np.zeros_like(s_term)
        grad[:, payoff.asset] = indicator * ratio[:, payoff.asset]
    elif isinstance(payoff, Put):
        indicator = (s_term[:, payoff.asset] < payoff.strike).astype(float)
        grad = np.zeros_like(s_term)
        grad[:, payoff.asset] = -indicator * ratio[:, payoff.asset]
    elif isinstance(payoff, BasketCall):
        basket = s_term @ payoff.weights
        indicator = (basket > payoff.strike).astype(float)
        grad = indicator[:, None] * payoff.weights[None, :] * ratio
    elif isinstance(payoff, BasketPut):
        basket = s_term @ payoff.weights
        indicator = (basket < payoff.strike).astype(float)
        grad = -indicator[:, None] * payoff.weights[None, :] * ratio
    else:
        raise ValidationError(
            f"pathwise delta not implemented for {type(payoff).__name__}; "
            "use mc_greeks_bump"
        )
    samples = df * grad
    delta = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(n_paths)
    return delta, stderr

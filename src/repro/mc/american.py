"""Longstaff–Schwartz (2001) least-squares Monte Carlo for American and
Bermudan exercise.

Backward induction over the monitoring grid: at each exercise date the
continuation value is regressed (least squares on a polynomial basis of the
current asset prices, in-the-money paths only) against the realized
discounted future cash flow; exercise wherever intrinsic ≥ fitted
continuation. The resulting stopping rule gives the standard (slightly
low-biased) LSM estimator.

Multi-asset support comes from a tensor polynomial basis with cross terms —
the 2-asset Bermudan max-call of the evaluation (experiment F8) regresses on
``{1, S₁, S₂, S₁², S₂², S₁S₂, ...}``.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

from repro.errors import ValidationError
from repro.market.gbm import MultiAssetGBM
from repro.mc.result import MCResult
from repro.payoffs.base import Payoff
from repro.rng import Philox4x32
from repro.utils.validation import check_positive_int

__all__ = ["LongstaffSchwartz", "lsm_price", "polynomial_features"]


def polynomial_features(prices: np.ndarray, degree: int, scale: np.ndarray) -> np.ndarray:
    """Design matrix of monomials up to total degree ``degree``.

    ``prices`` is (n, d); features are products of the *scaled* prices
    ``S_i / scale_i`` (scaling keeps the normal equations well conditioned).
    Column 0 is the constant. For d = 2, degree = 2 the columns are
    ``1, x₁, x₂, x₁², x₁x₂, x₂²``.
    """
    p = np.asarray(prices, dtype=float)
    if p.ndim != 2:
        raise ValidationError("prices must be (n, d)")
    if degree < 1:
        raise ValidationError(f"degree must be ≥ 1, got {degree}")
    x = p / np.asarray(scale, dtype=float)[None, :]
    n, d = x.shape
    cols = [np.ones(n)]
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(d), deg):
            col = np.ones(n)
            for idx in combo:
                col = col * x[:, idx]
            cols.append(col)
    return np.column_stack(cols)


class LongstaffSchwartz:
    """LSM pricer for Bermudan/American contracts.

    Parameters
    ----------
    degree : total degree of the regression polynomial (2 is the classical
        choice; 3 tightens the max-call results at some cost).

    The regression runs on in-the-money paths only (Longstaff & Schwartz's
    original recommendation; markedly better conditioning), and with fewer
    than 32 of them at a date it is skipped there (continuation kept),
    avoiding degenerate fits.
    """

    def __init__(self, degree: int = 2):
        self.degree = check_positive_int("degree", degree)

    def price(
        self,
        model: MultiAssetGBM,
        payoff: Payoff,
        expiry: float,
        steps: int,
        n_paths: int,
        *,
        seed: int = 0,
    ) -> MCResult:
        """Price with ``steps`` exercise dates (Bermudan; large ``steps``
        approximates American)."""
        m = check_positive_int("steps", steps)
        n = check_positive_int("n_paths", n_paths)
        # repro.engine imports this package, so its rules load at call time.
        from repro.engine.contract import check_contract
        from repro.engine.names import LSM

        check_contract(LSM, model, (payoff,), expiry, p=1, n_paths=n, steps=m,
                       n_space=None)
        paths = model.sample_paths(Philox4x32(seed, stream=0xA), n, expiry, m)
        dt = expiry / m
        disc = math.exp(-model.rate * dt)

        # cash[i] = cash flow of path i at step tau[i] (as-of that date).
        cash = payoff.intrinsic(paths[:, -1, :])
        tau = np.full(n, m, dtype=np.int64)

        for t in range(m - 1, 0, -1):
            s_t = paths[:, t, :]
            intrinsic = payoff.intrinsic(s_t)
            candidates = intrinsic > 0.0
            n_cand = int(candidates.sum())
            if n_cand < 32:
                continue
            # Realized discounted continuation value along each path.
            realized = cash * np.power(disc, tau - t)
            x_mat = polynomial_features(s_t[candidates], self.degree, model.spots)
            coef, *_ = np.linalg.lstsq(x_mat, realized[candidates], rcond=None)
            continuation = x_mat @ coef
            exercise_now = np.zeros(n, dtype=bool)
            exercise_now[candidates] = intrinsic[candidates] >= continuation
            exercise_now &= intrinsic > 0.0
            cash = np.where(exercise_now, intrinsic, cash)
            tau = np.where(exercise_now, t, tau)

        pv = cash * np.exp(-model.rate * dt * tau)
        price = float(pv.mean())
        stderr = float(pv.std(ddof=1) / math.sqrt(n))
        # Immediate exercise at t=0 dominates when intrinsic beats the MC value.
        intrinsic0 = float(payoff.intrinsic(paths[:, 0, :])[0])
        if intrinsic0 > price:
            price = intrinsic0
        return MCResult(
            price=price,
            stderr=stderr,
            n_paths=n,
            technique="lsm",
            meta={"degree": self.degree, "steps": m, "itm_only": True},
        )


def lsm_price(
    model: MultiAssetGBM,
    payoff: Payoff,
    expiry: float,
    steps: int,
    n_paths: int,
    *,
    degree: int = 2,
    seed: int = 0,
) -> MCResult:
    """Functional wrapper around :class:`LongstaffSchwartz`."""
    return LongstaffSchwartz(degree).price(
        model, payoff, expiry, steps, n_paths, seed=seed
    )

"""Importance sampling by exponential tilting of the Gaussian driver.

For deep out-of-the-money contracts almost every plain-MC path pays zero;
shifting the sampling measure so paths land near the exercise region and
reweighting by the likelihood ratio

    E[f(Z)] = E[ f(Z + μ) · exp(−μᵀZ − ‖μ‖²/2) ],   Z ~ N(0, I),

trades bias for none and variance for a lot (when μ is chosen sensibly).
:func:`drift_to_strike` picks μ automatically for basket/vanilla calls by
pushing the *mean* path's basket level onto the strike — the classical
"tilt to the money" heuristic.

The estimator is a :class:`Technique`, so it composes with the sequential
engine and the parallel pricer unchanged, and its partial is the ordinary
mergeable :class:`SampleStats` over the weighted samples.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.market.gbm import MultiAssetGBM
from repro.mc.statistics import SampleStats
from repro.mc.variance_reduction import Technique, _discounted_payoffs
from repro.payoffs.base import Payoff

__all__ = ["ImportanceSampling", "drift_to_strike"]


def drift_to_strike(model: MultiAssetGBM, payoff: Payoff,
                    expiry: float) -> np.ndarray:
    """A z-space shift μ that moves the deterministic mean path onto the
    contract's exercise boundary.

    Works for payoffs exposing a ``strike`` and a ``basket_level``/single
    asset structure: the shift direction is the equal-weight unit vector in
    z-space (the dominant direction for exchangeable baskets); its
    magnitude solves ``level(S(μ)) = K`` by 200 bisection steps. Returns the zero
    vector if the mean path already exercises.
    """
    strike = getattr(payoff, "strike", None)
    if strike is None:
        raise ValidationError(
            f"{type(payoff).__name__} exposes no strike; supply the shift explicitly"
        )
    d = model.dim
    direction = np.ones(d) / math.sqrt(d)

    def level(scale: float) -> float:
        z = (scale * direction)[None, :]
        prices = model.terminal_from_normals(z, expiry)
        level_fn = getattr(payoff, "basket_level", None)
        if level_fn is not None:
            return float(level_fn(prices)[0])
        return float(prices[0, getattr(payoff, "asset", 0)])

    if level(0.0) >= strike:
        return np.zeros(d)
    lo, hi = 0.0, 1.0
    it = 0
    while level(hi) < strike:
        hi *= 2.0
        it += 1
        if it > 60:
            raise ConvergenceError("could not bracket the strike-hitting shift")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if level(mid) < strike:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    return hi * direction


class ImportanceSampling(Technique):
    """Exponentially tilted estimator with a fixed z-space shift.

    Parameters
    ----------
    shift : the drift vector μ (length = model dim). Build it with
        :func:`drift_to_strike` or supply your own.
    """

    name = "importance"

    def __init__(self, shift):
        mu = np.atleast_1d(np.asarray(shift, dtype=float))
        if mu.ndim != 1 or not np.all(np.isfinite(mu)):
            raise ValidationError("shift must be a finite 1-D vector")
        self.shift = mu

    def partial(self, model, payoff, expiry, n, gen, *, steps=None) -> SampleStats:
        if payoff.is_path_dependent:
            raise ValidationError(
                "ImportanceSampling currently supports terminal payoffs only"
            )
        d = model.dim
        if self.shift.size != d:
            raise ValidationError(
                f"shift has length {self.shift.size}, model dim is {d}"
            )
        z = gen.normals(n * d).reshape(n, d)
        shifted = z + self.shift[None, :]
        y = _discounted_payoffs(model, payoff, expiry, shifted, steps=None)
        log_w = -(z @ self.shift) - 0.5 * float(self.shift @ self.shift)
        return SampleStats.from_values(y * np.exp(log_w))

    def combine(self, parts: list[SampleStats]) -> SampleStats:
        out = SampleStats()
        for p in parts:
            out = out.merge(p)
        return out

    def finalize(self, part: SampleStats) -> tuple[float, float, int]:
        return part.mean, part.stderr, part.n

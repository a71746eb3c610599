"""Heston (1993) stochastic-volatility model.

Risk-neutral dynamics:

    dS/S = (r − q) dt + √v dW_S
    dv   = κ(θ − v) dt + ξ √v dW_v,     d⟨W_S, W_v⟩ = ρ dt.

Monte Carlo sampling uses the **full-truncation Euler** scheme (Lord,
Koekkoek & van Dijk 2010): the variance may go negative in the discrete
recursion but only its positive part enters drift and diffusion — the
standard low-bias Euler variant. The scheme has O(Δt) weak bias, so the
model carries its own ``sampling_steps`` resolution and the tests compare
against the semi-analytic price (:mod:`repro.analytic.heston`) with a
bias-aware tolerance.

Priced through the MC engine with :class:`~repro.mc.direct.DirectSampling`,
like every model that owns its randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.rng.base import BitGenerator
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_positive_int,
)

__all__ = ["HestonModel"]


@dataclass(frozen=True, eq=False, repr=False)
class HestonModel:
    """Single-asset Heston market.

    Parameters
    ----------
    spot : S₀ > 0.
    v0 : initial instantaneous variance (e.g. 0.04 = 20% vol).
    kappa : mean-reversion speed κ > 0.
    theta : long-run variance θ > 0.
    xi : vol-of-vol ξ > 0.
    rho : correlation between price and variance shocks, in (−1, 1).
    rate : risk-free rate (no dividend yield).
    sampling_steps : Euler steps per unit time for MC sampling.
    """

    spot: float
    v0: float
    kappa: float
    theta: float
    xi: float
    rho: float
    rate: float
    sampling_steps: int = 250

    def __init__(self, spot, v0, kappa, theta, xi, rho, rate,
                 sampling_steps=250):
        object.__setattr__(self, "spot", check_positive("spot", spot))
        object.__setattr__(self, "v0", check_non_negative("v0", v0))
        object.__setattr__(self, "kappa", check_positive("kappa", kappa))
        object.__setattr__(self, "theta", check_positive("theta", theta))
        object.__setattr__(self, "xi", check_positive("xi", xi))
        object.__setattr__(self, "rho",
                           check_in_range("rho", rho, -1.0, 1.0, inclusive=False))
        if not np.isfinite(rate):
            raise ValidationError(f"rate must be finite, got {rate!r}")
        object.__setattr__(self, "rate", float(rate))
        object.__setattr__(self, "sampling_steps",
                           check_positive_int("sampling_steps", sampling_steps))

    @property
    def dim(self) -> int:
        return 1

    @property
    def feller_satisfied(self) -> bool:
        """Feller condition 2κθ ≥ ξ²: the variance never hits zero."""
        return 2.0 * self.kappa * self.theta >= self.xi * self.xi

    @property
    def spots(self) -> np.ndarray:
        return np.array([self.spot])

    def sample_terminal(self, gen: BitGenerator, n_paths: int,
                        horizon: float) -> np.ndarray:
        """Terminal prices via full-truncation Euler, shape ``(n, 1)``."""
        n = check_positive_int("n_paths", n_paths)
        t = check_positive("horizon", horizon)
        m = max(int(round(self.sampling_steps * t)), 2)
        dt = t / m
        sqrt_dt = math.sqrt(dt)
        rho = self.rho
        rho_bar = math.sqrt(1.0 - rho * rho)

        log_s = np.full(n, math.log(self.spot))
        v = np.full(n, self.v0)
        drift_rq = self.rate * dt
        for _ in range(m):
            z = gen.normals(2 * n)
            z_v = z[:n]
            z_s = rho * z_v + rho_bar * z[n:]
            v_plus = np.maximum(v, 0.0)
            sqrt_v = np.sqrt(v_plus)
            log_s += drift_rq - 0.5 * v_plus * dt + sqrt_v * sqrt_dt * z_s
            v = v + self.kappa * (self.theta - v_plus) * dt \
                + self.xi * sqrt_v * sqrt_dt * z_v
        return np.exp(log_s)[:, None]

    def terminal_mean(self, horizon: float) -> float:
        """E[S_T] = S₀ e^{rT} (the discounted asset is a martingale)."""
        t = check_positive("horizon", horizon)
        return self.spot * math.exp(self.rate * t)

    def __repr__(self) -> str:
        return (
            f"HestonModel(spot={self.spot}, v0={self.v0}, kappa={self.kappa}, "
            f"theta={self.theta}, xi={self.xi}, rho={self.rho}, rate={self.rate})"
        )

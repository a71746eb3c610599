"""Merton (1976) jump-diffusion — the classical extension beyond GBM.

Risk-neutral dynamics with compensated lognormal jumps:

    S_T = S₀ · exp( (r − q − λκ − σ²/2)T + σ√T·Z + Σ_{i=1}^{N} Y_i ),
    N ~ Poisson(λT),  Y_i ~ N(μ_J, σ_J²),  κ = e^{μ_J + σ_J²/2} − 1.

Exact terminal sampling (no discretization): a vectorized Knuth Poisson
sampler drives the jump counts from the library's own uniform generator.
European calls/puts have Merton's closed-form series
(:func:`repro.analytic.merton.merton_price`), the accuracy baseline.

Priced through the engine with the :class:`~repro.mc.direct.DirectSampling`
technique (the model draws its own randomness, unlike the Gaussian-block
protocol GBM uses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.rng.base import BitGenerator
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
)

__all__ = ["MertonJumpDiffusion", "sample_poisson"]


def sample_poisson(gen: BitGenerator, n: int, mean: float) -> np.ndarray:
    """``n`` Poisson(mean) variates via the vectorized Knuth product method.

    Exact for any mean; intended for the moderate λT of jump models
    (iteration count concentrates near ``mean``). For ``mean = 0`` returns
    zeros without consuming randomness.
    """
    check_positive_int("n", n)
    check_non_negative("mean", mean)
    if mean == 0.0:
        return np.zeros(n, dtype=np.int64)
    if mean > 100.0:
        raise ValidationError(
            f"Knuth sampler is inefficient for mean={mean}; keep λT ≤ 100"
        )
    threshold = math.exp(-mean)
    counts = np.full(n, -1, dtype=np.int64)
    prod = np.ones(n, dtype=float)
    active = np.ones(n, dtype=bool)
    # P(N ≥ k) decays super-exponentially past the mean; this bound is safe.
    max_rounds = int(mean + 12.0 * math.sqrt(mean) + 20.0)
    for _ in range(max_rounds):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        u = gen.uniforms_open(idx.size)
        prod[idx] *= u
        counts[idx] += 1
        still = prod[idx] > threshold
        active[idx] = still
    if active.any():  # pragma: no cover - probability ≈ 0
        raise ValidationError("Poisson sampling failed to terminate")
    return counts


@dataclass(frozen=True, eq=False, repr=False)
class MertonJumpDiffusion:
    """Single-asset Merton jump-diffusion market.

    Parameters
    ----------
    spot, vol, rate : as in Black–Scholes (no dividend yield).
    jump_intensity : λ ≥ 0, expected jumps per year.
    jump_mean : μ_J, mean of the lognormal jump size exponent.
    jump_vol : σ_J ≥ 0, std-dev of the jump size exponent.
    """

    spot: float
    vol: float
    rate: float
    jump_intensity: float
    jump_mean: float
    jump_vol: float

    def __init__(self, spot, vol, rate, jump_intensity, jump_mean, jump_vol):
        object.__setattr__(self, "spot", check_positive("spot", spot))
        object.__setattr__(self, "vol", check_positive("vol", vol))
        if not np.isfinite(rate):
            raise ValidationError(f"rate must be finite, got {rate!r}")
        object.__setattr__(self, "rate", float(rate))
        object.__setattr__(self, "jump_intensity",
                           check_non_negative("jump_intensity", jump_intensity))
        if not np.isfinite(jump_mean):
            raise ValidationError(f"jump_mean must be finite, got {jump_mean!r}")
        object.__setattr__(self, "jump_mean", float(jump_mean))
        object.__setattr__(self, "jump_vol",
                           check_non_negative("jump_vol", jump_vol))

    @property
    def dim(self) -> int:
        """Single underlying."""
        return 1

    @property
    def kappa(self) -> float:
        """Expected relative jump size κ = E[e^Y] − 1."""
        return math.exp(self.jump_mean + 0.5 * self.jump_vol**2) - 1.0

    @property
    def spots(self) -> np.ndarray:
        """Spot vector (length 1), mirroring :class:`MultiAssetGBM`."""
        return np.array([self.spot])

    def sample_terminal(self, gen: BitGenerator, n_paths: int,
                        horizon: float) -> np.ndarray:
        """Exact terminal prices, shape ``(n, 1)``."""
        n = check_positive_int("n_paths", n_paths)
        t = check_positive("horizon", horizon)
        lam_t = self.jump_intensity * t
        drift = (self.rate - self.jump_intensity * self.kappa
                 - 0.5 * self.vol**2) * t
        z = gen.normals(n)
        counts = sample_poisson(gen, n, lam_t)
        # Σ of N(μ_J, σ_J²) given the count: N(k μ_J, k σ_J²).
        jump_z = gen.normals(n)
        jumps = counts * self.jump_mean + np.sqrt(counts.astype(float)) \
            * self.jump_vol * jump_z
        log_s = math.log(self.spot) + drift + self.vol * math.sqrt(t) * z + jumps
        return np.exp(log_s)[:, None]

    def terminal_mean(self, horizon: float) -> float:
        """E[S_T] = S₀ e^{rT} — the compensator makes the discounted
        asset a martingale despite the jumps."""
        t = check_positive("horizon", horizon)
        return self.spot * math.exp(self.rate * t)

    def __repr__(self) -> str:
        return (
            f"MertonJumpDiffusion(spot={self.spot}, vol={self.vol}, "
            f"rate={self.rate}, lambda={self.jump_intensity}, "
            f"jump_mean={self.jump_mean}, jump_vol={self.jump_vol})"
        )

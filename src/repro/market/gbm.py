"""Correlated multi-asset geometric Brownian motion.

The risk-neutral dynamics priced throughout the library:

    dS_i / S_i = (r − q_i) dt + σ_i dW_i,   d⟨W_i, W_j⟩ = ρ_ij dt.

Exact sampling (GBM has a lognormal transition density) is used everywhere —
terminal draws for European payoffs, full paths for path-dependent ones —
so discretization error is zero and the MC error is purely statistical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.market.correlation import _factor_validated, constant_correlation
from repro.rng.base import BitGenerator
from repro.utils.validation import (
    check_1d_lengths,
    check_correlation_matrix,
    check_positive,
    check_positive_int,
)

__all__ = ["MultiAssetGBM"]


@dataclass(frozen=True, eq=False, repr=False)
class MultiAssetGBM:
    """A ``d``-asset Black–Scholes market.

    Parameters
    ----------
    spots : (d,) initial prices S_i(0) > 0.
    vols : (d,) lognormal volatilities σ_i > 0.
    rate : risk-free rate r (continuous compounding).
    dividends : (d,) continuous dividend yields q_i (default 0).
    correlation : (d, d) correlation matrix (default identity).

    Scalars broadcast across assets, so ``MultiAssetGBM(100, 0.2, 0.05)`` is
    a valid single-asset model and
    ``MultiAssetGBM([100]*4, 0.2, 0.05, correlation=constant_correlation(4, 0.3))``
    a 4-asset basket market.
    """

    spots: np.ndarray
    vols: np.ndarray
    rate: float
    dividends: np.ndarray = None  # type: ignore[assignment]
    correlation: np.ndarray = None  # type: ignore[assignment]
    _chol: np.ndarray = field(init=False, repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __init__(self, spots, vols, rate, dividends=None, correlation=None):
        spots_arr = np.atleast_1d(np.asarray(spots, dtype=float))
        d = spots_arr.size
        arrays = check_1d_lengths(
            d,
            spots=spots_arr,
            vols=vols,
            dividends=0.0 if dividends is None else dividends,
        )
        if np.any(arrays["spots"] <= 0):
            raise ValidationError("all spots must be positive")
        if np.any(arrays["vols"] <= 0):
            raise ValidationError("all vols must be positive")
        if not np.isfinite(rate):
            raise ValidationError(f"rate must be finite, got {rate!r}")
        corr = (
            np.eye(d)
            if correlation is None
            else check_correlation_matrix("correlation", np.asarray(correlation, dtype=float))
        )
        if corr.shape != (d, d):
            raise ValidationError(
                f"correlation must be ({d}, {d}) to match {d} assets, got {corr.shape}"
            )
        object.__setattr__(self, "spots", arrays["spots"])
        object.__setattr__(self, "vols", arrays["vols"])
        object.__setattr__(self, "rate", float(rate))
        object.__setattr__(self, "dividends", arrays["dividends"])
        object.__setattr__(self, "correlation", corr)
        object.__setattr__(self, "_chol", _factor_validated(corr))

    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        """Number of assets ``d``."""
        return self.spots.size

    @property
    def drifts(self) -> np.ndarray:
        """Risk-neutral log-drifts ``r − q_i − σ_i²/2``."""
        return self.rate - self.dividends - 0.5 * self.vols**2

    @property
    def cholesky(self) -> np.ndarray:
        """Lower-triangular Cholesky factor of the correlation matrix."""
        return self._chol

    def with_spots(self, spots) -> "MultiAssetGBM":
        """A copy of the model with bumped spots (used by bump-Greeks)."""
        return MultiAssetGBM(spots, self.vols, self.rate, self.dividends, self.correlation)

    def with_vols(self, vols) -> "MultiAssetGBM":
        """A copy of the model with bumped vols (used by bump-vega)."""
        return MultiAssetGBM(self.spots, vols, self.rate, self.dividends, self.correlation)

    # -- sampling ----------------------------------------------------------

    def correlate(self, z: np.ndarray) -> np.ndarray:
        """Map iid N(0,1) draws ``(..., d)`` to correlated draws via L·z."""
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != self.dim:
            raise ValidationError(
                f"last axis of z must be {self.dim}, got {z.shape[-1]}"
            )
        return z @ self._chol.T

    def terminal_from_normals(self, z: np.ndarray, horizon: float) -> np.ndarray:
        """Exact terminal prices S(T) from iid normals ``z`` of shape (n, d).

        Separated from :meth:`sample_terminal` so variance-reduction wrappers
        (antithetic pairs, QMC points) can supply their own normals.
        """
        t = check_positive("horizon", horizon)
        w = self.correlate(z)  # (n, d) correlated standard normals, fresh
        # The affine step runs in place, one asset row of w.T at a time;
        # exp stays on the C-contiguous (n, d) array (its SIMD path).
        wt = w.T
        wt *= (self.vols * np.sqrt(t))[:, None]
        wt += (np.log(self.spots) + self.drifts * t)[:, None]
        return np.exp(w, out=w)

    def sample_terminal(self, gen: BitGenerator, n_paths: int, horizon: float) -> np.ndarray:
        """Draw ``n_paths`` exact terminal price vectors, shape ``(n, d)``."""
        n = check_positive_int("n_paths", n_paths)
        z = gen.normals(n * self.dim).reshape(n, self.dim)
        return self.terminal_from_normals(z, horizon)

    def paths_from_normals(self, z: np.ndarray, horizon: float, steps: int) -> np.ndarray:
        """Exact discretely monitored paths from normals ``(n, steps, d)``.

        Returns prices of shape ``(n, steps + 1, d)`` including ``t = 0``.
        Each increment uses the exact lognormal transition over ``Δt``.
        """
        t = check_positive("horizon", horizon)
        m = check_positive_int("steps", steps)
        z = np.asarray(z, dtype=float)
        if z.shape[-2:] != (m, self.dim):
            raise ValidationError(
                f"z must have shape (n, {m}, {self.dim}), got {z.shape}"
            )
        dt = t / m
        w = z @ self._chol.T  # correlate within each step
        log_inc = self.drifts[None, None, :] * dt + self.vols[None, None, :] * np.sqrt(dt) * w
        log_paths = np.cumsum(log_inc, axis=1)
        n = z.shape[0]
        out = np.empty((n, m + 1, self.dim), dtype=float)
        out[:, 0, :] = self.spots[None, :]
        out[:, 1:, :] = np.exp(np.log(self.spots)[None, None, :] + log_paths)
        return out

    def sample_paths(
        self, gen: BitGenerator, n_paths: int, horizon: float, steps: int
    ) -> np.ndarray:
        """Draw ``n_paths`` exact paths, shape ``(n, steps + 1, d)``."""
        n = check_positive_int("n_paths", n_paths)
        m = check_positive_int("steps", steps)
        z = gen.normals(n * m * self.dim).reshape(n, m, self.dim)
        return self.paths_from_normals(z, horizon, steps)

    # -- exact moments (used in tests and control variates) ----------------

    def terminal_mean(self, horizon: float) -> np.ndarray:
        """E[S_i(T)] = S_i(0)·exp((r − q_i)·T)."""
        t = check_positive("horizon", horizon)
        return self.spots * np.exp((self.rate - self.dividends) * t)

    def terminal_log_moments(self, horizon: float) -> tuple[np.ndarray, np.ndarray]:
        """Mean vector and covariance matrix of ``log S(T)``."""
        t = check_positive("horizon", horizon)
        mean = np.log(self.spots) + self.drifts * t
        cov = self.correlation * np.outer(self.vols, self.vols) * t
        return mean, cov

    # -- conveniences -------------------------------------------------------

    @staticmethod
    def single(spot: float, vol: float, rate: float) -> "MultiAssetGBM":
        """A 1-asset model without dividends (plain Black–Scholes world)."""
        return MultiAssetGBM([spot], [vol], rate, [0.0])

    def __repr__(self) -> str:
        return (
            f"MultiAssetGBM(dim={self.dim}, spots={self.spots.tolist()}, "
            f"vols={self.vols.tolist()}, rate={self.rate})"
        )

    @staticmethod
    def equicorrelated(
        dim: int, spot: float, vol: float, rate: float, rho: float
    ) -> "MultiAssetGBM":
        """A symmetric ``dim``-asset market with constant pairwise correlation
        and no dividends."""
        return MultiAssetGBM(
            [spot] * dim,
            [vol] * dim,
            rate,
            [0.0] * dim,
            constant_correlation(dim, rho),
        )

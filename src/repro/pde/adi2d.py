"""Peaceman–Rachford ADI for two-asset Black–Scholes.

In ``x = ln(S₁/S₁₀)``, ``y = ln(S₂/S₂₀)`` the PDE is

    V_τ = ½σ₁² V_xx + ½σ₂² V_yy + ρσ₁σ₂ V_xy + μ₁ V_x + μ₂ V_y − r V.

Each time step splits into two half-steps, implicit in one direction at a
time; the mixed derivative is treated explicitly (the simple Craig–Sneyd
variant), and the ``−rV`` reaction term is split evenly between directions:

    (I − ½Δτ L_x) V*     = (I + ½Δτ L_y) Vⁿ + ½Δτ M Vⁿ
    (I − ½Δτ L_y) Vⁿ⁺¹  = (I + ½Δτ L_x) V* + ½Δτ M Vⁿ

Every half-step is a batch of independent tridiagonal solves — one per grid
line — which is precisely the unit the parallel PDE pricer distributes: the
x-sweep parallelizes over rows, the y-sweep over columns, with a transpose
(all-to-all) between them (experiment T7).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ValidationError
from repro.market.gbm import MultiAssetGBM
from repro.payoffs.base import Payoff
from repro.pde.grid import LogGrid
from repro.pde.result import PDEResult
from repro.utils.numerics import solve_tridiagonal
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["ADISolver", "adi_price"]


def _operator_bands(vol: float, mu: float, rate_half: float, dx: float, n: int):
    """Bands of L_dir = ½σ²∂² + μ∂ − r/2 with linearity boundaries."""
    diff = 0.5 * vol * vol / (dx * dx)
    conv = mu / (2.0 * dx)
    lower = np.full(n, diff - conv)
    diag = np.full(n, -2.0 * diff - rate_half)
    upper = np.full(n, diff + conv)
    lower[0] = 0.0
    diag[0] = -mu / dx - rate_half
    upper[0] = mu / dx
    lower[-1] = -mu / dx
    diag[-1] = mu / dx - rate_half
    upper[-1] = 0.0
    return lower, diag, upper


def _apply_bands_axis0(bands, v):
    """(L v) along axis 0 for a 2-D array v."""
    lower, diag, upper = bands
    y = diag[:, None] * v
    y[1:] += lower[1:, None] * v[:-1]
    y[:-1] += upper[:-1, None] * v[1:]
    return y


class ADISolver:
    """Configured 2-asset ADI solver.

    Parameters
    ----------
    model : a 2-asset :class:`MultiAssetGBM`.
    expiry : maturity.
    n_space : spatial intervals per axis (even).
    n_time : time steps.

    The grid spans five diffusion standard deviations each way.
    """

    def __init__(
        self,
        model: MultiAssetGBM,
        expiry: float,
        *,
        n_space: int = 200,
        n_time: int = 100,
    ):
        if model.dim != 2:
            raise ValidationError(f"ADI solver requires a 2-asset model, got dim={model.dim}")
        check_positive("expiry", expiry)
        self.model = model
        self.expiry = float(expiry)
        self.n_time = check_positive_int("n_time", n_time)
        mu = model.drifts
        self.grid_x = LogGrid(float(model.spots[0]), float(model.vols[0]), expiry,
                              n_space, drift=float(mu[0]))
        self.grid_y = LogGrid(float(model.spots[1]), float(model.vols[1]), expiry,
                              n_space, drift=float(mu[1]))
        self.dt = self.expiry / self.n_time
        nx, ny = self.grid_x.n_nodes, self.grid_y.n_nodes
        r_half = 0.5 * model.rate
        self.bands_x = _operator_bands(float(model.vols[0]), float(mu[0]), r_half,
                                       self.grid_x.dx, nx)
        self.bands_y = _operator_bands(float(model.vols[1]), float(mu[1]), r_half,
                                       self.grid_y.dx, ny)
        self.cross_coef = (
            float(model.correlation[0, 1]) * float(model.vols[0]) * float(model.vols[1])
        )

    # -- pieces reused by the parallel pricer ---------------------------------

    def mixed_term(self, v: np.ndarray) -> np.ndarray:
        """ρσ₁σ₂ V_xy by central cross-differences (zero on the boundary ring)."""
        out = np.zeros_like(v)
        factor = self.cross_coef / (4.0 * self.grid_x.dx * self.grid_y.dx)
        out[1:-1, 1:-1] = factor * (
            v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]
        )
        return out

    def explicit_x(self, v: np.ndarray) -> np.ndarray:
        """(I + ½Δτ L_x) v."""
        return v + 0.5 * self.dt * _apply_bands_axis0(self.bands_x, v)

    def explicit_y(self, v: np.ndarray) -> np.ndarray:
        """(I + ½Δτ L_y) v."""
        return (v.T + 0.5 * self.dt * _apply_bands_axis0(self.bands_y, v.T)).T

    def implicit_x(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I − ½Δτ L_x) out = rhs — one tridiagonal solve per column."""
        lower, diag, upper = self.bands_x
        h = 0.5 * self.dt
        return solve_tridiagonal(-h * lower, 1.0 - h * diag, -h * upper, rhs)

    def implicit_y(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I − ½Δτ L_y) out = rhs — one tridiagonal solve per row."""
        lower, diag, upper = self.bands_y
        h = 0.5 * self.dt
        return solve_tridiagonal(-h * lower, 1.0 - h * diag, -h * upper, rhs.T).T

    def step(self, v: np.ndarray, *, obstacle: np.ndarray | None = None) -> np.ndarray:
        """One full Peaceman–Rachford step (τ → τ + Δτ)."""
        mixed = 0.5 * self.dt * self.mixed_term(v)
        v_star = self.implicit_x(self.explicit_y(v) + mixed)
        v_new = self.implicit_y(self.explicit_x(v_star) + mixed)
        if obstacle is not None:
            np.maximum(v_new, obstacle, out=v_new)
        return v_new

    # -- pricing ------------------------------------------------------------------

    def price(self, payoff: Payoff, *, american: bool = False) -> PDEResult:
        """Run the backward sweep and read the price at the spot node."""
        if payoff.dim != 2:
            raise ValidationError(f"ADI solver prices 2-asset payoffs, got dim={payoff.dim}")
        if payoff.is_path_dependent:
            raise ValidationError("ADI prices non-path-dependent payoffs only")
        sx = self.grid_x.s
        sy = self.grid_y.s
        mesh = np.stack(np.meshgrid(sx, sy, indexing="ij"), axis=-1).reshape(-1, 2)
        values = payoff.terminal(mesh).reshape(sx.size, sy.size)
        obstacle = values.copy() if american else None
        for _ in range(self.n_time):
            values = self.step(values, obstacle=obstacle)
        i, j = self.grid_x.spot_index, self.grid_y.spot_index
        price = float(values[i, j])
        delta1 = float(
            (values[i + 1, j] - values[i - 1, j])
            / (2.0 * self.grid_x.dx)
            / self.grid_x.spot
        )
        delta2 = float(
            (values[i, j + 1] - values[i, j - 1])
            / (2.0 * self.grid_y.dx)
            / self.grid_y.spot
        )
        return PDEResult(
            price=price,
            n_space=sx.size - 1,
            n_time=self.n_time,
            scheme="adi-peaceman-rachford",
            delta=delta1,
            gamma=None,
            meta={"delta2": delta2, "american": american},
        )


def adi_price(
    model: MultiAssetGBM,
    payoff: Payoff,
    expiry: float,
    *,
    n_space: int = 200,
    n_time: int = 100,
    american: bool = False,
) -> PDEResult:
    """Price a 2-asset contract with Peaceman–Rachford ADI (wrapper)."""
    solver = ADISolver(model, expiry, n_space=n_space, n_time=n_time)
    return solver.price(payoff, american=american)

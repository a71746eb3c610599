"""1-D Black–Scholes finite differences (θ-scheme) in log space.

With ``x = ln(S/S₀)`` and ``τ`` = time to maturity, the PDE is

    V_τ = ½σ² V_xx + μ V_x − r V,   μ = r − q − σ²/2,

constant-coefficient, so the discrete operator is a single tridiagonal
``L``. The θ-scheme advances ``(I − θΔτ L) V^{k+1} = (I + (1−θ)Δτ L) V^k``:
θ = 0 explicit (conditionally stable, CFL-checked), θ = 1 implicit,
θ = ½ Crank–Nicolson. Boundaries use the payoff-agnostic *linearity*
condition ``V_xx = 0`` with one-sided convection.

American exercise: explicit steps project onto the obstacle directly;
implicit/CN steps solve the LCP with projected SOR (:mod:`repro.pde.psor`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import StabilityError, ValidationError
from repro.payoffs.base import Payoff
from repro.pde.grid import LogGrid
from repro.pde.psor import psor_solve
from repro.pde.result import PDEResult
from repro.utils.numerics import solve_tridiagonal
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["fd_price", "theta_scheme_operator"]

_SCHEMES = {"explicit": 0.0, "implicit": 1.0, "crank-nicolson": 0.5}


def theta_scheme_operator(
    vol: float, rate: float, dividend: float, dx: float, n_nodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tridiagonal bands ``(lower, diag, upper)`` of the space operator L.

    Interior rows are central differences of ``½σ²∂_xx + μ∂_x − r``;
    boundary rows impose zero second derivative with one-sided first
    derivatives (linearity boundary).
    """
    check_positive("vol", vol)
    check_positive("dx", dx)
    n = check_positive_int("n_nodes", n_nodes)
    if n < 3:
        raise ValidationError("operator needs at least 3 nodes")
    mu = rate - dividend - 0.5 * vol * vol
    diff = 0.5 * vol * vol / (dx * dx)
    conv = mu / (2.0 * dx)
    lower = np.full(n, diff - conv)
    diag = np.full(n, -2.0 * diff - rate)
    upper = np.full(n, diff + conv)
    # Linearity boundaries: V_xx = 0, one-sided V_x.
    lower[0] = 0.0
    diag[0] = -mu / dx - rate
    upper[0] = mu / dx
    lower[-1] = -mu / dx
    diag[-1] = mu / dx - rate
    upper[-1] = 0.0
    return lower, diag, upper


def _apply_tridiag(lower, diag, upper, v):
    """y = T·v for tridiagonal bands (lower[0], upper[-1] unused)."""
    y = diag * v
    y[1:] += lower[1:] * v[:-1]
    y[:-1] += upper[:-1] * v[1:]
    return y


def fd_price(
    spot: float,
    payoff: Payoff,
    vol: float,
    rate: float,
    expiry: float,
    *,
    n_space: int = 400,
    n_time: int = 400,
    scheme: str = "crank-nicolson",
    american: bool = False,
    american_solver: str = "psor",
) -> PDEResult:
    """Price a single-asset contract by finite differences.

    Parameters mirror :func:`repro.lattice.binomial_price`; ``n_space`` is
    the number of spatial intervals (even), ``n_time`` the number of time
    steps. ``american_solver`` selects the LCP method for implicit schemes:
    ``"psor"`` (projected SOR) or ``"penalty"`` (Forsyth–Vetzal penalty
    iteration) — the two agree to the penalty tolerance (ablation-tested).
    Returns price plus spot delta/gamma.
    """
    if scheme not in _SCHEMES:
        raise ValidationError(f"scheme must be one of {tuple(_SCHEMES)}, got {scheme!r}")
    if american_solver not in ("psor", "penalty"):
        raise ValidationError(
            f"american_solver must be 'psor' or 'penalty', got {american_solver!r}"
        )
    if payoff.dim != 1:
        raise ValidationError("fd_price handles single-asset payoffs; use adi_price for 2-D")
    if payoff.is_path_dependent:
        raise ValidationError("finite differences price non-path-dependent payoffs here")
    check_positive("expiry", expiry)
    m = check_positive_int("n_time", n_time)
    theta = _SCHEMES[scheme]
    mu = rate - 0.5 * vol * vol
    grid = LogGrid(spot, vol, expiry, n_space, drift=mu)
    dt = expiry / m
    lower, diag, upper = theta_scheme_operator(vol, rate, 0.0, grid.dx, grid.n_nodes)

    if theta < 0.5:
        # Explicit-part stability: Δτ · max|diag| ≤ 1 keeps the update a
        # positive combination (sufficient condition).
        cfl = dt * float(np.max(np.abs(diag)))
        if (1.0 - theta) * cfl > 1.0:
            raise StabilityError(
                f"explicit scheme unstable: dt·max|L_ii| = {cfl:.3f} > 1; "
                f"use n_time ≥ {int(math.ceil(expiry * np.max(np.abs(diag)))) + 1} "
                "or an implicit scheme",
                cfl=cfl,
            )

    values = payoff.terminal(grid.s[:, None])
    obstacle = values.copy() if american else None

    # Precompute the two band triples of the θ-scheme.
    exp_l = (1.0 - theta) * dt * lower
    exp_d = 1.0 + (1.0 - theta) * dt * diag
    exp_u = (1.0 - theta) * dt * upper
    imp_l = -theta * dt * lower
    imp_d = 1.0 - theta * dt * diag
    imp_u = -theta * dt * upper

    for _ in range(m):
        rhs = _apply_tridiag(exp_l, exp_d, exp_u, values)
        if theta == 0.0:
            values = rhs
            if american:
                np.maximum(values, obstacle, out=values)
        elif american:
            if american_solver == "psor":
                values = psor_solve(imp_l, imp_d, imp_u, rhs, obstacle, x0=values)
            else:
                from repro.pde.penalty import penalty_solve

                values = penalty_solve(imp_l, imp_d, imp_u, rhs, obstacle)
        else:
            values = solve_tridiagonal(imp_l, imp_d, imp_u, rhs)

    price = grid.value_at_spot(values)
    delta, gamma = grid.derivatives_at_spot(values)
    return PDEResult(
        price=price,
        n_space=n_space,
        n_time=m,
        scheme=scheme,
        delta=delta,
        gamma=gamma,
        meta={"american": american, "american_solver": american_solver,
              "dx": grid.dx, "dt": dt},
    )

"""Penalty method for American options — the PSOR alternative.

Instead of solving the linear complementarity problem exactly, the penalty
method (Forsyth & Vetzal 2002) adds a large one-sided source term pushing
the solution above the obstacle:

    (I − θΔτ L) V = rhs + ρ·max(ψ − V, 0),

solved per time step by a few Newton-style penalty iterations, each a plain
tridiagonal solve with the penalty active set frozen. As ρ → ∞ the solution
converges to the LCP's; with ρ ≈ 1/tolerance the constraint violation is
O(1/ρ).

Included as the design-choice ablation for American PDE exercise
(DESIGN.md): same prices as PSOR, different inner loop (a handful of
tridiagonal solves vs hundreds of relaxation sweeps).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.utils.numerics import solve_tridiagonal

__all__ = ["penalty_solve"]

_MAX_ITER = 50


def penalty_solve(
    lower: np.ndarray,
    diag: np.ndarray,
    upper: np.ndarray,
    rhs: np.ndarray,
    obstacle: np.ndarray,
    *,
    penalty: float = 1e7,
) -> np.ndarray:
    """Solve ``A x = b`` subject to ``x ≥ ψ`` by penalty iteration.

    Parameters mirror :func:`repro.pde.psor_solve`; ``penalty`` is the
    constraint weight ρ (violation scales like 1/ρ). The iteration stops
    when the active set or the iterate (to 1e-8) settles, within 50 rounds.
    """
    if penalty <= 0:
        raise ValidationError(f"penalty must be positive, got {penalty}")
    a = np.asarray(lower, dtype=float)
    b = np.asarray(diag, dtype=float)
    c = np.asarray(upper, dtype=float)
    d = np.asarray(rhs, dtype=float)
    psi = np.asarray(obstacle, dtype=float)
    n = b.shape[0]
    if any(arr.shape[0] != n for arr in (a, c, d, psi)):
        raise ValidationError("all penalty-solver inputs must share their first dimension")

    # Start from the unconstrained solution; the active set where it dips
    # below the obstacle seeds the iteration (Forsyth–Vetzal).
    x = solve_tridiagonal(a.copy(), b.copy(), c.copy(), d.copy())
    active = x < psi
    prev = x
    for _ in range(_MAX_ITER):
        # Penalized system with the current active set: rows in the set get
        # the penalty on the diagonal and ρ·ψ on the right-hand side.
        b_pen = b + penalty * active
        d_pen = d + penalty * active * psi
        x = solve_tridiagonal(a.copy(), b_pen, c.copy(), d_pen)
        # Penalized nodes land at ψ − O(1/ρ): a *strict* comparison keeps
        # them in the set (a slack tolerance here causes period-2 cycling).
        new_active = x < psi
        set_stable = np.array_equal(new_active, active)
        value_stable = float(np.max(np.abs(x - prev))) < 1e-8
        if set_stable or value_stable:
            # The remaining violation is the O(1/ρ) penalty slack; project
            # it away and return.
            return np.maximum(x, psi)
        active = new_active
        prev = x
    raise ConvergenceError(
        f"penalty iteration did not settle in {_MAX_ITER} rounds",
        iterations=_MAX_ITER,
    )

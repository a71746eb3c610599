"""Small numerical kernels shared across the library.

These are deliberately self-contained (normal distribution functions, the
Thomas tridiagonal solver, a nearest-PSD repair) so the pricing engines do not
depend on any closed-source numerics: everything the paper's algorithms need
is implemented here or in the engine packages.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "norm_cdf",
    "norm_pdf",
    "norm_ppf",
    "solve_tridiagonal",
    "nearest_psd",
    "relative_error",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_pdf(x):
    """Standard normal density, vectorized over ``x``."""
    x = np.asarray(x, dtype=float)
    out = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return float(out) if out.ndim == 0 else out


def norm_cdf(x):
    """Standard normal CDF ``Φ(x)``, vectorized, via the error function."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * (1.0 + _erf(x / _SQRT2))
    return float(out) if np.ndim(out) == 0 else out


# Beasley–Springer–Moro coefficients for the inverse normal CDF.
_BSM_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
          1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_BSM_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
          6.680131188771972e01, -1.328068155288572e01)
_BSM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
          -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_BSM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
          3.754408661907416e00)
_BSM_PLOW = 0.02425


def _ppf_scalar(p: float) -> float:
    """Acklam/BSM rational approximation of ``Φ⁻¹(p)`` with one Halley step."""
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    if p < _BSM_PLOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((_BSM_C[0] * q + _BSM_C[1]) * q + _BSM_C[2]) * q + _BSM_C[3]) * q
              + _BSM_C[4]) * q + _BSM_C[5]) / \
            ((((_BSM_D[0] * q + _BSM_D[1]) * q + _BSM_D[2]) * q + _BSM_D[3]) * q + 1.0)
    elif p <= 1.0 - _BSM_PLOW:
        q = p - 0.5
        r = q * q
        x = (((((_BSM_A[0] * r + _BSM_A[1]) * r + _BSM_A[2]) * r + _BSM_A[3]) * r
              + _BSM_A[4]) * r + _BSM_A[5]) * q / \
            (((((_BSM_B[0] * r + _BSM_B[1]) * r + _BSM_B[2]) * r + _BSM_B[3]) * r
              + _BSM_B[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((_BSM_C[0] * q + _BSM_C[1]) * q + _BSM_C[2]) * q + _BSM_C[3]) * q
               + _BSM_C[4]) * q + _BSM_C[5]) / \
            ((((_BSM_D[0] * q + _BSM_D[1]) * q + _BSM_D[2]) * q + _BSM_D[3]) * q + 1.0)
    # One Halley refinement using the exact CDF brings the error to ~1e-15.
    e = 0.5 * math.erfc(-x / _SQRT2) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


_ppf_vec = np.vectorize(_ppf_scalar, otypes=[float])

# scipy's vectorized erf/ndtri, bound once at import (scipy is a declared
# dependency). The pure-Python forms agree with them only to ~1e-15, so they
# stand in for a missing scipy and never for a call that raised: an error
# inside erf/ndtri propagates rather than silently changing the bits.
try:
    from scipy.special import erf as _erf, ndtri as _ndtri
except ImportError:  # pragma: no cover - scipy is installed in CI
    _erf, _ndtri = np.vectorize(math.erf, otypes=[float]), _ppf_vec


def norm_ppf(p):
    """Inverse standard normal CDF ``Φ⁻¹(p)``, vectorized.

    The reference implementation is the Beasley–Springer–Moro / Acklam
    rational approximation refined with a Halley step (accurate to machine
    precision across ``(0, 1)``; see :func:`norm_ppf_reference`). For bulk
    arrays the vectorized ``scipy.special.ndtri`` is used — the two agree to
    ~1e-15 (asserted in the test suite). This is the map that turns Sobol
    points into Gaussian variates.
    """
    arr = np.asarray(p, dtype=float)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValidationError("norm_ppf requires probabilities in [0, 1]")
    out = _ndtri(arr)
    return float(out) if np.ndim(out) == 0 else out


def norm_ppf_reference(p):
    """Self-contained Φ⁻¹ (BSM/Acklam + Halley step); oracle for norm_ppf."""
    arr = np.asarray(p, dtype=float)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValidationError("norm_ppf requires probabilities in [0, 1]")
    out = _ppf_vec(arr)
    return float(out) if out.ndim == 0 else out


def solve_tridiagonal(lower, diag, upper, rhs):
    """Solve a tridiagonal system with the Thomas algorithm.

    Parameters
    ----------
    lower : array of length n (``lower[0]`` ignored) — sub-diagonal.
    diag : array of length n — main diagonal.
    upper : array of length n (``upper[-1]`` ignored) — super-diagonal.
    rhs : array of length n, or (n, k) for multiple right-hand sides.

    Returns the solution with the same trailing shape as ``rhs``.
    The Thomas algorithm is O(n) and is the building block of the implicit
    and Crank–Nicolson FD schemes and of each ADI half-step.
    """
    a = np.asarray(lower, dtype=float)
    b = np.asarray(diag, dtype=float).copy()
    c = np.asarray(upper, dtype=float)
    d = np.asarray(rhs, dtype=float).copy()
    n = b.shape[0]
    if a.shape[0] != n or c.shape[0] != n or d.shape[0] != n:
        raise ValidationError("tridiagonal bands and rhs must share their first dimension")
    if n == 0:
        return d
    if np.any(b == 0.0):
        # zero pivot on the raw diagonal is almost always a setup bug
        raise ValidationError("tridiagonal solver encountered a zero diagonal entry")
    # Forward sweep.
    for i in range(1, n):
        w = a[i] / b[i - 1]
        b[i] = b[i] - w * c[i - 1]
        if b[i] == 0.0:
            raise ValidationError("tridiagonal solver encountered a zero pivot")
        d[i] = d[i] - w * d[i - 1]
    # Back substitution.
    d[n - 1] = d[n - 1] / b[n - 1]
    for i in range(n - 2, -1, -1):
        d[i] = (d[i] - c[i] * d[i + 1]) / b[i]
    return d


def nearest_psd(matrix: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix onto the PSD correlation matrices
    (Higham-style, one shot).

    Eigenvalues are clipped at zero and the result is rescaled back to a
    unit diagonal. Used to repair
    empirically estimated correlation matrices before Cholesky factorization.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"nearest_psd requires a square matrix, got shape {m.shape}")
    sym = 0.5 * (m + m.T)
    vals, vecs = np.linalg.eigh(sym)
    vals = np.clip(vals, 0.0, None)
    out = (vecs * vals) @ vecs.T
    d = np.sqrt(np.clip(np.diag(out), 1e-300, None))
    out = out / np.outer(d, d)
    np.fill_diagonal(out, 1.0)
    return 0.5 * (out + out.T)


def relative_error(approx: float, exact: float) -> float:
    """``|approx - exact| / max(|exact|, eps)`` — scale-free accuracy metric."""
    denom = max(abs(float(exact)), np.finfo(float).tiny)
    return abs(float(approx) - float(exact)) / denom

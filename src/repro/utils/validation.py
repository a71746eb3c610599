"""Argument-validation helpers.

All pricing entry points validate their inputs through these helpers so that
misuse fails fast with a :class:`repro.errors.ValidationError` naming the
offending parameter, rather than propagating NaNs through a simulation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
    "check_positive_int",
    "check_correlation_matrix",
    "check_1d_lengths",
]


def check_positive(name: str, value: float) -> float:
    """Return ``value`` if strictly positive and finite, else raise."""
    v = float(value)
    if not np.isfinite(v) or v <= 0.0:
        raise ValidationError(f"{name} must be a finite positive number, got {value!r}")
    return v


def check_non_negative(name: str, value: float) -> float:
    """Return ``value`` if non-negative and finite, else raise."""
    v = float(value)
    if not np.isfinite(v) or v < 0.0:
        raise ValidationError(f"{name} must be a finite non-negative number, got {value!r}")
    return v


def check_probability(name: str, value: float) -> float:
    """Return ``value`` if in the closed unit interval, else raise."""
    v = float(value)
    if not np.isfinite(v) or v < 0.0 or v > 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    return v


def check_in_range(
    name: str,
    value: float,
    lo: float,
    hi: float,
    *,
    inclusive: bool = True,
) -> float:
    """Return ``value`` if it lies in ``[lo, hi]`` (or ``(lo, hi)``), else raise."""
    v = float(value)
    ok = (lo <= v <= hi) if inclusive else (lo < v < hi)
    if not np.isfinite(v) or not ok:
        brackets = "[]" if inclusive else "()"
        raise ValidationError(
            f"{name} must lie in {brackets[0]}{lo}, {hi}{brackets[1]}, got {value!r}"
        )
    return v


def check_positive_int(name: str, value: int) -> int:
    """Return ``value`` as int if it is a positive integer, else raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    v = int(value)
    if v <= 0:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    return v


def check_correlation_matrix(name: str, matrix: np.ndarray) -> np.ndarray:
    """Validate a correlation matrix and return it as a float ndarray.

    Checks: square, finite, symmetric and unit diagonal to 1e-8 absolute
    plus 1e-5 relative (``|a − b| ≤ 1e-8 + 1e-5·|b|``, ``np.isclose``'s
    test, against ``mᵀ`` and 1), entries in [-1, 1] to 1e-8, and
    positive semi-definiteness via an eigenvalue bound of -1e-8.
    """
    atol, rtol = 1e-8, 1e-5
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    # np.allclose's own formula, without its set-up (finite input only).
    if not (np.abs(m - m.T) <= atol + rtol * np.abs(m.T)).all():
        raise ValidationError(f"{name} must be symmetric")
    if not (np.abs(m.diagonal() - 1.0) <= atol + rtol).all():
        raise ValidationError(f"{name} must have a unit diagonal")
    if np.any(np.abs(m) > 1.0 + atol):
        raise ValidationError(f"{name} entries must lie in [-1, 1]")
    eigmin = float(np.linalg.eigvalsh(m).min())
    if eigmin < -atol:
        raise ValidationError(
            f"{name} is not positive semi-definite (min eigenvalue {eigmin:.3e}); "
            "repair it with repro.utils.nearest_psd first"
        )
    return m


def check_1d_lengths(expected: int, **arrays: Sequence[float]) -> dict[str, np.ndarray]:
    """Coerce keyword arrays to 1-D float ndarrays of length ``expected``.

    Scalars broadcast to the expected length. Returns a dict keyed by the
    original keyword names.
    """
    out: dict[str, np.ndarray] = {}
    for name, value in arrays.items():
        arr = np.atleast_1d(np.asarray(value, dtype=float))
        if arr.ndim != 1:
            raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
        if arr.size == 1 and expected > 1:
            arr = np.full(expected, float(arr[0]))
        if arr.size != expected:
            raise ValidationError(
                f"{name} must have length {expected}, got length {arr.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} contains non-finite entries")
        out[name] = arr
    return out

"""Correlation-matrix utilities for multi-asset models.

Multidimensional pricing lives and dies by the correlation structure: the
Cholesky factor drives correlated path generation in MC, the pairwise ρ's
enter the BEG lattice branch probabilities, and the mixed-derivative term of
the 2-D PDE. These helpers build, validate and factor correlation matrices.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError, ValidationError
from repro.utils.validation import check_correlation_matrix, check_positive_int

__all__ = [
    "cholesky_factor",
    "constant_correlation",
    "random_correlation",
    "is_positive_semidefinite",
]


def is_positive_semidefinite(matrix: np.ndarray) -> bool:
    """True when all eigenvalues of the symmetrized matrix are ≥ −1e-10."""
    m = np.asarray(matrix, dtype=float)
    sym = 0.5 * (m + m.T)
    return bool(np.linalg.eigvalsh(sym).min() >= -1e-10)


def cholesky_factor(correlation: np.ndarray) -> np.ndarray:
    """Lower-triangular L with ``L Lᵀ = ρ``.

    Rank-deficient but valid matrices (e.g. ρ = 1 blocks) are handled by a
    small diagonal bump retry.
    """
    rho = np.asarray(correlation, dtype=float)
    return _factor_validated(check_correlation_matrix("correlation", rho))


def _factor_validated(rho: np.ndarray) -> np.ndarray:
    """:func:`cholesky_factor` of an already-validated matrix (a second
    ``check_correlation_matrix`` pass costs more than the factorization)."""
    try:
        return np.linalg.cholesky(rho)
    except np.linalg.LinAlgError:
        # PSD-but-singular: bump the diagonal by machine-scale jitter.
        for bump in (1e-14, 1e-12, 1e-10):
            try:
                return np.linalg.cholesky(rho + bump * np.eye(len(rho)))
            except np.linalg.LinAlgError:
                continue
        raise ModelError("correlation matrix could not be Cholesky-factorized")


def constant_correlation(dim: int, rho: float) -> np.ndarray:
    """The equicorrelation matrix: 1 on the diagonal, ``rho`` off it.

    Valid (PSD) iff ``−1/(dim−1) ≤ rho ≤ 1``; validated here so misuse is
    caught at construction rather than at factorization time.
    """
    dim = check_positive_int("dim", dim)
    if dim > 1:
        lo = -1.0 / (dim - 1)
        if not (lo - 1e-12 <= rho <= 1.0 + 1e-12):
            raise ValidationError(
                f"equicorrelation with dim={dim} requires rho in [{lo:.4f}, 1], got {rho}"
            )
    m = np.full((dim, dim), float(rho))
    np.fill_diagonal(m, 1.0)
    return m


def random_correlation(dim: int, seed: int = 0) -> np.ndarray:
    """A random valid correlation matrix (normalized Wishart draw).

    Draws a ``dim × 2·dim`` Gaussian factor matrix ``G`` with the library's
    own Philox generator and normalizes ``G Gᵀ`` to unit diagonal.
    Deterministic in ``seed``.
    """
    from repro.rng import Philox4x32

    dim = check_positive_int("dim", dim)
    k = 2 * dim
    gen = Philox4x32(seed, stream=0xC0)
    g = gen.normals(dim * k).reshape(dim, k)
    cov = g @ g.T
    d = np.sqrt(np.diag(cov))
    corr = cov / np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    return 0.5 * (corr + corr.T)

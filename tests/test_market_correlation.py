"""Correlation utilities."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.market import (
    cholesky_factor,
    constant_correlation,
    is_positive_semidefinite,
    random_correlation,
)


class TestConstantCorrelation:
    def test_structure(self):
        m = constant_correlation(3, 0.5)
        assert np.allclose(np.diag(m), 1.0)
        off = m[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5)

    def test_dim_one(self):
        assert constant_correlation(1, 0.9).shape == (1, 1)

    def test_lower_feasibility_bound(self):
        # For d assets, rho ≥ −1/(d−1); just inside works, outside raises.
        m = constant_correlation(4, -1.0 / 3.0 + 1e-9)
        assert is_positive_semidefinite(m)
        with pytest.raises(ValidationError):
            constant_correlation(4, -0.4)

    @given(st.integers(2, 8), st.floats(min_value=0.0, max_value=0.99))
    def test_always_factorizable(self, dim, rho):
        m = constant_correlation(dim, rho)
        l_factor = cholesky_factor(m)
        assert np.allclose(l_factor @ l_factor.T, m, atol=1e-10)


class TestCholesky:
    def test_identity(self):
        assert np.allclose(cholesky_factor(np.eye(4)), np.eye(4))

    def test_lower_triangular(self):
        m = constant_correlation(3, 0.4)
        l_factor = cholesky_factor(m)
        assert np.allclose(np.triu(l_factor, 1), 0.0)

    def test_singular_psd_handled(self):
        # Perfect correlation is PSD but singular; the bump retry handles it.
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        l_factor = cholesky_factor(m)
        assert np.allclose(l_factor @ l_factor.T, m, atol=1e-6)

    def test_indefinite_raises_without_repair(self):
        m = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        with pytest.raises(ValidationError):
            cholesky_factor(m)

class TestRandomCorrelation:
    @given(st.integers(1, 8), st.integers(0, 50))
    def test_always_valid(self, dim, seed):
        m = random_correlation(dim, seed)
        assert m.shape == (dim, dim)
        assert np.allclose(np.diag(m), 1.0)
        assert np.allclose(m, m.T)
        assert is_positive_semidefinite(m)
        assert np.all(np.abs(m) <= 1.0 + 1e-12)

    def test_deterministic_in_seed(self):
        assert np.allclose(random_correlation(4, 7), random_correlation(4, 7))
        assert not np.allclose(random_correlation(4, 7), random_correlation(4, 8))

class TestIsPsd:
    def test_detects_both_cases(self):
        assert is_positive_semidefinite(np.eye(2))
        assert not is_positive_semidefinite(np.array([[1.0, 2.0], [2.0, 1.0]]))

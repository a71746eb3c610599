"""Numerical kernels: normal functions, Thomas solver, PSD repair."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ValidationError
from repro.utils.numerics import (
    nearest_psd,
    norm_cdf,
    norm_pdf,
    norm_ppf,
    norm_ppf_reference,
    relative_error,
    solve_tridiagonal,
)


class TestNormalFunctions:
    def test_cdf_known_values(self):
        assert norm_cdf(0.0) == pytest.approx(0.5)
        assert norm_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-9)
        assert norm_cdf(-8.0) == pytest.approx(0.0, abs=1e-14)

    def test_pdf_peak_and_symmetry(self):
        assert norm_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))
        x = np.linspace(-3, 3, 13)
        assert np.allclose(norm_pdf(x), norm_pdf(-x))

    def test_ppf_inverts_cdf(self):
        for p in (0.001, 0.1, 0.5, 0.9, 0.999):
            assert norm_cdf(norm_ppf(p)) == pytest.approx(p, abs=1e-12)

    def test_ppf_reference_matches_production(self):
        # The self-contained BSM/Acklam oracle vs the scipy fast path.
        p = np.concatenate([
            np.linspace(1e-10, 1e-3, 20),
            np.linspace(0.01, 0.99, 99),
            1.0 - np.linspace(1e-10, 1e-3, 20),
        ])
        # Bulk agreement is ~1e-15; the extreme upper tail (p → 1) loses a
        # few digits to 1−p cancellation in the Halley refinement.
        assert np.allclose(norm_ppf(p), norm_ppf_reference(p), atol=1e-8, rtol=0)
        bulk = (p > 1e-4) & (p < 1.0 - 1e-4)
        assert np.allclose(norm_ppf(p[bulk]), norm_ppf_reference(p[bulk]), atol=1e-12, rtol=0)

    def test_ppf_tails(self):
        assert norm_ppf(0.0) == -math.inf
        assert norm_ppf(1.0) == math.inf

    def test_ppf_rejects_outside_unit_interval(self):
        with pytest.raises(ValidationError):
            norm_ppf(1.5)
        with pytest.raises(ValidationError):
            norm_ppf(-0.1)

    @pytest.mark.parametrize("fn,bound", [(norm_ppf, "_ndtri"), (norm_cdf, "_erf")])
    def test_scipy_error_propagates_instead_of_falling_back(self, monkeypatch, fn, bound):
        # The pure-Python forms differ from scipy's in the last bits; falling
        # back to them on a call-time error would silently rebaseline prices.
        def broken(_):
            raise RuntimeError("scipy kernel failed")

        monkeypatch.setattr(f"repro.utils.numerics.{bound}", broken)
        with pytest.raises(RuntimeError, match="scipy kernel failed"):
            fn(np.array([0.25, 0.5]))
        with pytest.raises(RuntimeError, match="scipy kernel failed"):
            fn(0.25)

    @given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
    def test_ppf_monotone_and_consistent(self, p):
        x = norm_ppf(p)
        assert norm_cdf(x) == pytest.approx(p, abs=1e-9)


class TestTridiagonal:
    def _random_system(self, n, seed):
        rng = np.random.default_rng(seed)
        lower = rng.normal(size=n)
        upper = rng.normal(size=n)
        # Diagonal dominance guarantees a stable factorization.
        diag = np.abs(lower) + np.abs(upper) + 1.0 + rng.random(n)
        rhs = rng.normal(size=n)
        return lower, diag, upper, rhs

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 200])
    def test_matches_dense_solve(self, n):
        lower, diag, upper, rhs = self._random_system(n, seed=n)
        x = solve_tridiagonal(lower, diag, upper, rhs)
        dense = np.diag(diag)
        for i in range(1, n):
            dense[i, i - 1] = lower[i]
            dense[i - 1, i] = upper[i - 1]
        assert np.allclose(dense @ x, rhs, atol=1e-9)

    def test_multiple_rhs(self):
        lower, diag, upper, _ = self._random_system(50, seed=7)
        rng = np.random.default_rng(1)
        rhs = rng.normal(size=(50, 4))
        x = solve_tridiagonal(lower, diag, upper, rhs)
        for k in range(4):
            xk = solve_tridiagonal(lower, diag, upper, rhs[:, k])
            assert np.allclose(x[:, k], xk)

    def test_identity_system(self):
        n = 5
        rhs = np.arange(1.0, n + 1)
        x = solve_tridiagonal(np.zeros(n), np.ones(n), np.zeros(n), rhs)
        assert np.allclose(x, rhs)

    def test_rejects_zero_diagonal(self):
        with pytest.raises(ValidationError):
            solve_tridiagonal([0, 1], [1, 0], [1, 0], [1, 1])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValidationError):
            solve_tridiagonal([0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])

    def test_empty_system(self):
        out = solve_tridiagonal([], [], [], [])
        assert out.size == 0

    @given(
        hnp.arrays(np.float64, st.integers(2, 30),
                   elements=st.floats(-2, 2, allow_nan=False)),
    )
    def test_solution_residual_property(self, lower):
        n = lower.shape[0]
        rng = np.random.default_rng(42)
        upper = rng.normal(size=n)
        diag = np.abs(lower) + np.abs(upper) + 1.5
        rhs = rng.normal(size=n)
        x = solve_tridiagonal(lower, diag, upper, rhs)
        resid = diag * x
        resid[1:] += lower[1:] * x[:-1]
        resid[:-1] += upper[:-1] * x[1:]
        assert np.allclose(resid, rhs, atol=1e-8)


class TestNearestPsd:
    def test_already_psd_unchanged(self):
        m = np.array([[1.0, 0.5], [0.5, 1.0]])
        out = nearest_psd(m)
        assert np.allclose(out, m, atol=1e-12)

    def test_repairs_indefinite(self):
        m = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        out = nearest_psd(m)
        assert np.linalg.eigvalsh(out).min() >= -1e-10
        assert np.allclose(np.diag(out), 1.0)
        assert np.allclose(out, out.T)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            nearest_psd(np.ones((2, 3)))

    @given(st.integers(2, 6), st.integers(0, 1000))
    def test_output_always_psd_correlation(self, dim, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-1, 1, size=(dim, dim))
        sym = 0.5 * (raw + raw.T)
        np.fill_diagonal(sym, 1.0)
        out = nearest_psd(sym)
        assert np.linalg.eigvalsh(out).min() >= -1e-9
        assert np.allclose(np.diag(out), 1.0)
        assert np.all(np.abs(out) <= 1.0 + 1e-9)


class TestSmallMetrics:
    def test_relative_error(self):
        assert relative_error(101.0, 100.0) == pytest.approx(0.01)
        assert relative_error(0.0, 0.0) == 0.0

"""Boyle–Evnine–Gibbs multidimensional lattice."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analytic import (
    bs_price,
    geometric_basket_price,
    margrabe_price,
    rainbow_two_asset_price,
)
from repro.errors import StabilityError, ValidationError
from repro.lattice import BEGLattice, beg_price, beg_probabilities
from repro.market import MultiAssetGBM, constant_correlation
from repro.payoffs import (
    AsianGeometricCall,
    Call,
    CallOnMax,
    CallOnMin,
    ExchangeOption,
    GeometricBasketCall,
    Put,
)


class TestProbabilities:
    @given(st.integers(1, 4), st.floats(0.0, 0.45))
    def test_sum_to_one_and_nonnegative(self, dim, rho):
        # BEG feasibility for equicorrelated d=4 requires ρ ≤ 0.5 (the
        # mixed-sign branch weight 1 − 2ρ must stay non-negative); the
        # infeasible region is covered by test_coarse_dt_raises-style cases.
        model = MultiAssetGBM.equicorrelated(dim, 100, 0.25, 0.05, rho if dim > 1 else 0.0)
        offsets, probs = beg_probabilities(model, dt=1.0 / 300)
        assert probs.shape == (2**dim,)
        assert offsets.shape == (2**dim, dim)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert probs.min() >= 0.0

    def test_one_dim_reduces_to_half_plus_drift(self):
        model = MultiAssetGBM.single(100, 0.2, 0.05)
        _, probs = beg_probabilities(model, dt=0.01)
        mu = (0.05 - 0.02) / 0.2
        expected_up = 0.5 * (1.0 + np.sqrt(0.01) * mu)
        assert max(probs) == pytest.approx(expected_up, abs=1e-12)

    def test_coarse_dt_raises(self):
        model = MultiAssetGBM.single(100, 0.05, 0.5)  # huge drift/vol ratio
        with pytest.raises(StabilityError):
            beg_probabilities(model, dt=1.0)

    def test_moment_matching_mean(self):
        # E[Δ log S] over branches must equal μ·dt to machine precision.
        model = MultiAssetGBM.equicorrelated(2, 100, 0.3, 0.05, 0.5)
        dt = 1.0 / 200
        offsets, probs = beg_probabilities(model, dt)
        eps = 2.0 * offsets - 1.0  # back to ±1
        step = eps * model.vols[None, :] * np.sqrt(dt)
        mean = probs @ step
        assert np.allclose(mean, model.drifts * dt, atol=1e-14)

    def test_moment_matching_correlation(self):
        model = MultiAssetGBM.equicorrelated(2, 100, 0.3, 0.05, 0.5)
        dt = 1.0 / 200
        offsets, probs = beg_probabilities(model, dt)
        eps = 2.0 * offsets - 1.0
        # E[ε₁ε₂] = ρ by construction.
        assert probs @ (eps[:, 0] * eps[:, 1]) == pytest.approx(0.5, abs=1e-12)


class TestPricingAgainstClosedForms:
    def test_d1_converges_to_bs(self, model_1d):
        exact = bs_price(100, 100, 0.2, 0.05, 1.0)
        r = beg_price(model_1d, Call(100.0), 1.0, 600)
        assert r.price == pytest.approx(exact, abs=0.02)

    def test_d2_exchange_vs_margrabe(self, model_2d):
        exact = margrabe_price(100, 95, 0.2, 0.3, 0.4, 1.0)
        r = beg_price(model_2d, ExchangeOption(), 1.0, 200)
        assert r.price == pytest.approx(exact, abs=0.03)

    @pytest.mark.parametrize("kind,payoff", [
        ("call-on-max", CallOnMax(100.0)),
        ("call-on-min", CallOnMin(100.0)),
    ])
    def test_d2_rainbow_vs_stulz(self, model_2d, kind, payoff):
        exact = rainbow_two_asset_price(100, 95, 100, 0.2, 0.3, 0.4, 0.05, 1.0,
                                        kind=kind)
        r = beg_price(model_2d, payoff, 1.0, 200)
        assert r.price == pytest.approx(exact, abs=0.05)

    def test_d3_geometric_basket(self):
        model = MultiAssetGBM.equicorrelated(3, 100, 0.25, 0.05, 0.3)
        w = [1 / 3] * 3
        exact = geometric_basket_price(model, w, 100.0, 1.0)
        r = beg_price(model, GeometricBasketCall(w, 100.0), 1.0, 60)
        assert r.price == pytest.approx(exact, abs=0.05)

    def test_convergence_order(self, model_2d):
        exact = margrabe_price(100, 95, 0.2, 0.3, 0.4, 1.0)
        errs = [
            abs(beg_price(model_2d, ExchangeOption(), 1.0, n).price - exact)
            for n in (25, 50, 100, 200)
        ]
        assert errs[-1] < errs[0]


class TestAmerican:
    def test_american_geq_european(self, model_2d):
        eu = beg_price(model_2d, CallOnMax(100.0), 1.0, 80).price
        am = beg_price(model_2d, CallOnMax(100.0), 1.0, 80, american=True).price
        assert am >= eu - 1e-12

    def test_d1_american_put_matches_crr_shape(self, model_1d):
        from repro.lattice import binomial_price

        beg = beg_price(model_1d, Put(100.0), 1.0, 800, american=True).price
        crr = binomial_price(100, Put(100.0), 0.2, 0.05, 1.0, 800,
                             american=True).price
        assert beg == pytest.approx(crr, abs=0.02)

    def test_dividend_makes_early_exercise_bind(self):
        model = MultiAssetGBM(
            [100.0, 100.0], [0.2, 0.2], 0.05, dividends=[0.1, 0.1],
            correlation=constant_correlation(2, 0.0),
        )
        eu = beg_price(model, CallOnMax(100.0), 3.0, 60).price
        am = beg_price(model, CallOnMax(100.0), 3.0, 60, american=True).price
        assert am > eu + 0.1


class TestSlabDecomposition:
    @given(st.integers(0, 9), st.integers(1, 5))
    def test_step_rows_matches_full_step(self, start, width):
        model = MultiAssetGBM.equicorrelated(2, 100, 0.25, 0.05, 0.3)
        lat = BEGLattice(model, 1.0, 10)
        t = 9
        stop = min(start + width, t + 1)
        v_next = lat.payoff_values(CallOnMax(100.0), t + 1)
        full = lat.step(v_next, t)
        rows = lat.step_rows(v_next[start : stop + 1], t, start, stop - start)
        assert np.array_equal(full[start:stop], rows)

    def test_step_rows_validation(self):
        model = MultiAssetGBM.equicorrelated(2, 100, 0.25, 0.05, 0.3)
        lat = BEGLattice(model, 1.0, 5)
        v = lat.payoff_values(CallOnMax(100.0), 5)
        with pytest.raises(ValidationError):
            lat.step_rows(v[:3], 4, 3, 3)  # rows exceed level extent

    def test_step_shape_validation(self):
        model = MultiAssetGBM.single(100, 0.2, 0.05)
        lat = BEGLattice(model, 1.0, 5)
        with pytest.raises(ValidationError):
            lat.step(np.zeros(3), 3)


class TestGuards:
    def test_memory_guard(self):
        model = MultiAssetGBM.equicorrelated(4, 100, 0.2, 0.05, 0.2)
        with pytest.raises(ValidationError, match="node limit"):
            BEGLattice(model, 1.0, 200)

    def test_dim_mismatch(self, model_2d):
        with pytest.raises(ValidationError):
            beg_price(model_2d, Call(100.0), 1.0, 10)

    def test_path_dependent_rejected(self, model_1d):
        with pytest.raises(ValidationError):
            beg_price(model_1d, AsianGeometricCall(100.0), 1.0, 10)

    def test_level_axes_bounds(self, model_1d):
        lat = BEGLattice(model_1d, 1.0, 10)
        with pytest.raises(ValidationError):
            lat.level_axes(11)

    def test_delta_sign_for_calls(self, model_2d):
        r = beg_price(model_2d, CallOnMax(100.0), 1.0, 60)
        assert np.all(r.delta > 0)

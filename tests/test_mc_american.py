"""Longstaff–Schwartz LSM against lattice American values."""

import numpy as np
import pytest

from repro.analytic import bs_price
from repro.errors import ValidationError
from repro.lattice import beg_price, binomial_price
from repro.market import MultiAssetGBM, constant_correlation
from repro.mc import LongstaffSchwartz, lsm_price
from repro.mc.american import polynomial_features
from repro.payoffs import Call, CallOnMax, Put


class TestPolynomialFeatures:
    def test_degree_two_two_assets_column_count(self):
        x = np.random.default_rng(0).uniform(50, 150, size=(10, 2))
        f = polynomial_features(x, 2, np.array([100.0, 100.0]))
        # 1, x1, x2, x1², x1x2, x2².
        assert f.shape == (10, 6)
        assert np.allclose(f[:, 0], 1.0)

    def test_degree_one_single_asset(self):
        x = np.array([[100.0], [200.0]])
        f = polynomial_features(x, 1, np.array([100.0]))
        assert np.allclose(f, [[1.0, 1.0], [1.0, 2.0]])

    def test_scaling_applied(self):
        x = np.array([[200.0]])
        f = polynomial_features(x, 2, np.array([100.0]))
        assert np.allclose(f, [[1.0, 2.0, 4.0]])

    def test_validation(self):
        with pytest.raises(ValidationError):
            polynomial_features(np.zeros(3), 2, np.ones(3))
        with pytest.raises(ValidationError):
            polynomial_features(np.zeros((3, 1)), 0, np.ones(1))


class TestAmericanPut:
    def test_above_european_below_lattice_plus_noise(self, model_1d):
        r = lsm_price(model_1d, Put(100.0), 1.0, 50, 100_000, seed=1)
        euro = bs_price(100, 100, 0.2, 0.05, 1.0, option="put")
        lattice = binomial_price(100, Put(100.0), 0.2, 0.05, 1.0, 2000,
                                 american=True).price
        assert r.price > euro
        # LSM is low-biased but should land within a few stderr of the tree.
        assert lattice - 6 * r.stderr - 0.03 < r.price < lattice + 4 * r.stderr

    def test_deep_itm_put_exercises_immediately(self):
        model = MultiAssetGBM.single(40.0, 0.2, 0.05)
        r = lsm_price(model, Put(100.0), 1.0, 20, 20_000, seed=2)
        assert r.price == pytest.approx(60.0, abs=0.5)

    def test_more_exercise_dates_weakly_increase_value(self, model_1d):
        few = lsm_price(model_1d, Put(100.0), 1.0, 4, 100_000, seed=3)
        many = lsm_price(model_1d, Put(100.0), 1.0, 50, 100_000, seed=3)
        assert many.price > few.price - 3 * few.stderr


class TestAmericanCall:
    def test_no_dividend_call_equals_european(self, model_1d):
        # Early exercise of a call is never optimal without dividends.
        r = lsm_price(model_1d, Call(100.0), 1.0, 25, 100_000, seed=4)
        euro = bs_price(100, 100, 0.2, 0.05, 1.0)
        assert r.price == pytest.approx(euro, abs=4 * r.stderr + 0.05)

    def test_dividend_call_exceeds_european(self):
        model = MultiAssetGBM([100.0], [0.3], 0.05, [0.08])
        r = lsm_price(model, Call(100.0), 2.0, 50, 100_000, seed=5)
        euro = bs_price(100, 100, 0.3, 0.05, 2.0, dividend=0.08)
        assert r.price > euro + 2 * r.stderr


class TestMultiAssetBermudan:
    def test_two_asset_max_call_matches_lattice(self):
        model = MultiAssetGBM(
            [100.0, 100.0], [0.2, 0.2], 0.05,
            dividends=[0.10, 0.10],
            correlation=constant_correlation(2, 0.0),
        )
        payoff = CallOnMax(100.0)
        steps = 9
        tree = beg_price(model, payoff, 1.0, 90, american=True).price
        r = LongstaffSchwartz(degree=2).price(model, payoff, 1.0, steps, 100_000,
                                              seed=6)
        # Bermudan(9) ≤ American but close for this setup; allow a band.
        assert tree * 0.93 < r.price < tree * 1.03

    def test_dim_mismatch(self, model_2d):
        with pytest.raises(ValidationError):
            lsm_price(model_2d, Put(100.0), 1.0, 10, 1000)


class TestLSMInternals:
    def test_degree_three_consistent(self, model_1d):
        a = lsm_price(model_1d, Put(100.0), 1.0, 20, 50_000, degree=3, seed=8)
        b = lsm_price(model_1d, Put(100.0), 1.0, 20, 50_000, degree=2, seed=8)
        assert abs(a.price - b.price) < 5 * max(a.stderr, b.stderr) + 0.03

    def test_meta_recorded(self, model_1d):
        r = lsm_price(model_1d, Put(100.0), 1.0, 10, 10_000, seed=9)
        assert r.technique == "lsm"
        assert r.meta["steps"] == 10

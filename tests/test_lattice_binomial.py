"""1-D binomial lattice: convergence, schemes, American exercise."""

import numpy as np
import pytest

from repro.analytic import bs_greeks, bs_price
from repro.errors import StabilityError, ValidationError
from repro.lattice import binomial_parameters, binomial_price
from repro.payoffs import AsianGeometricCall, BasketCall, Call, Put, Straddle


class TestParameters:
    @pytest.mark.parametrize("scheme", ["crr", "jr", "tian"])
    def test_moments_roughly_matched(self, scheme):
        # One-step mean must match the risk-neutral growth to O(dt²).
        dt = 1.0 / 500
        u, d, p = binomial_parameters(0.2, 0.05, 0.0, dt, scheme)
        mean = p * u + (1 - p) * d
        assert mean == pytest.approx(np.exp(0.05 * dt), abs=1e-6)

    def test_crr_symmetry(self):
        u, d, _ = binomial_parameters(0.3, 0.02, 0.0, 0.01, "crr")
        assert u * d == pytest.approx(1.0)

    def test_jr_equal_probability(self):
        _, _, p = binomial_parameters(0.3, 0.02, 0.0, 0.01, "jr")
        assert p == 0.5

    def test_coarse_grid_raises_stability(self):
        # Huge drift with tiny vol pushes p out of (0,1).
        with pytest.raises(StabilityError):
            binomial_parameters(0.01, 0.5, 0.0, 1.0, "crr")

    def test_unknown_scheme(self):
        with pytest.raises(ValidationError):
            binomial_parameters(0.2, 0.05, 0.0, 0.01, "leisen")


class TestEuropeanConvergence:
    @pytest.mark.parametrize("scheme", ["crr", "jr", "tian"])
    def test_converges_to_black_scholes(self, scheme):
        # Binomial prices oscillate in n; average adjacent step counts to
        # damp the even/odd wobble before comparing errors.
        exact = bs_price(100, 100, 0.2, 0.05, 1.0)

        def smoothed_err(n):
            a = binomial_price(100, Call(100.0), 0.2, 0.05, 1.0, n,
                               scheme=scheme).price
            b = binomial_price(100, Call(100.0), 0.2, 0.05, 1.0, n + 1,
                               scheme=scheme).price
            return abs(0.5 * (a + b) - exact)

        assert smoothed_err(1600) < smoothed_err(100)
        assert smoothed_err(1600) < 5e-3

    def test_put_call_parity_at_finite_steps(self):
        c = binomial_price(100, Call(95.0), 0.2, 0.05, 1.0, 64).price
        p = binomial_price(100, Put(95.0), 0.2, 0.05, 1.0, 64).price
        assert c - p == pytest.approx(100 - 95 * np.exp(-0.05), abs=1e-9)

    def test_straddle_additivity(self):
        s = binomial_price(100, Straddle(100.0), 0.2, 0.05, 1.0, 128).price
        c = binomial_price(100, Call(100.0), 0.2, 0.05, 1.0, 128).price
        p = binomial_price(100, Put(100.0), 0.2, 0.05, 1.0, 128).price
        assert s == pytest.approx(c + p, abs=1e-10)

class TestGreeksFromTree:
    def test_delta_gamma_close_to_analytic(self):
        r = binomial_price(100, Call(100.0), 0.2, 0.05, 1.0, 1000)
        g = bs_greeks(100, 100, 0.2, 0.05, 1.0)
        assert r.delta[0] == pytest.approx(g.delta, abs=5e-3)
        assert r.gamma == pytest.approx(g.gamma, rel=0.05)


class TestAmerican:
    def test_american_put_premium(self):
        euro = binomial_price(100, Put(100.0), 0.2, 0.05, 1.0, 500).price
        amer = binomial_price(100, Put(100.0), 0.2, 0.05, 1.0, 500,
                              american=True).price
        assert amer > euro
        assert amer == pytest.approx(6.09, abs=0.03)  # classical reference

    def test_american_call_no_dividend_equals_european(self):
        euro = binomial_price(100, Call(100.0), 0.2, 0.05, 1.0, 500).price
        amer = binomial_price(100, Call(100.0), 0.2, 0.05, 1.0, 500,
                              american=True).price
        assert amer == pytest.approx(euro, abs=1e-9)

    def test_deep_itm_american_put_is_intrinsic(self):
        r = binomial_price(10, Put(100.0), 0.2, 0.05, 1.0, 200, american=True)
        assert r.price == pytest.approx(90.0, abs=1e-9)


class TestValidation:
    def test_rejects_multi_asset_payoff(self):
        with pytest.raises(ValidationError, match="single-asset"):
            binomial_price(100, BasketCall([0.5, 0.5], 100.0), 0.2, 0.05, 1.0, 10)

    def test_rejects_path_dependent(self):
        with pytest.raises(ValidationError, match="path-dependent"):
            binomial_price(100, AsianGeometricCall(100.0), 0.2, 0.05, 1.0, 10)

    def test_node_count_reported(self):
        r = binomial_price(100, Call(100.0), 0.2, 0.05, 1.0, 10)
        assert r.nodes == 11 * 12 // 2

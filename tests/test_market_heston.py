"""Heston stochastic volatility: characteristic function, semi-analytic
pricing, Euler sampling."""

import math
import warnings

import numpy as np
import pytest

from repro.analytic import bs_price, heston_charfn, heston_price
from repro.errors import ValidationError
from repro.market import HestonModel
from repro.mc import DirectSampling, MonteCarloEngine
from repro.payoffs import Call, Put
from repro.rng import Philox4x32

#: The standard test parameter set (Feller-violating, skewed — demanding).
KW = dict(v0=0.04, kappa=1.5, theta=0.06, xi=0.5, rho=-0.7, rate=0.03)


@pytest.fixture(autouse=True)
def _quiet_quad():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


class TestCharacteristicFunction:
    def test_unit_at_zero(self):
        phi = heston_charfn(0.0, 100, expiry=1.0, dividend=0.0, **KW)
        assert phi == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_martingale_at_minus_i(self):
        # φ(−i) = E[S_T] = forward.
        phi = heston_charfn(-1j, 100, expiry=1.0, dividend=0.0, **KW)
        forward = 100 * math.exp(0.03)
        assert phi.real == pytest.approx(forward, rel=1e-10)
        assert phi.imag == pytest.approx(0.0, abs=1e-8)

    def test_modulus_bounded(self):
        for u in (0.5, 2.0, 10.0, 50.0):
            assert abs(heston_charfn(u, 100, expiry=1.0, dividend=0.0, **KW)) <= 1.0 + 1e-12

    def test_conjugate_symmetry(self):
        a = heston_charfn(2.0, 100, expiry=1.0, dividend=0.0, **KW)
        b = heston_charfn(-2.0, 100, expiry=1.0, dividend=0.0, **KW)
        assert a == pytest.approx(b.conjugate(), rel=1e-12)


class TestSemiAnalyticPrice:
    def test_degenerates_to_black_scholes(self):
        # ξ → 0 with v0 = θ: variance is constant at θ.
        p = heston_price(100, 100, 1.0, v0=0.04, kappa=2.0, theta=0.04,
                         xi=1e-6, rho=0.0, rate=0.05)
        assert p == pytest.approx(bs_price(100, 100, 0.2, 0.05, 1.0), abs=1e-3)

    def test_put_call_parity(self):
        c = heston_price(100, 95, 1.0, **KW)
        p = heston_price(100, 95, 1.0, option="put", **KW)
        assert c - p == pytest.approx(100 - 95 * math.exp(-0.03), abs=1e-8)

    def test_no_arbitrage_bounds(self):
        c = heston_price(100, 100, 1.0, **KW)
        assert max(100 - 100 * math.exp(-0.03), 0.0) < c < 100

    def test_monotone_in_strike(self):
        prices = [heston_price(100, k, 1.0, **KW) for k in (80, 100, 120)]
        assert prices[0] > prices[1] > prices[2]

    def test_negative_rho_skews_the_smile(self):
        # ρ < 0 fattens the left tail: the 80-put carries more implied vol
        # than the 120-call.
        from repro.analytic import bs_implied_vol

        put80 = heston_price(100, 80, 1.0, option="put", **KW)
        call120 = heston_price(100, 120, 1.0, **KW)
        # The call with the put's implied vol, by put-call parity.
        call80 = put80 + 100 - 80 * math.exp(-0.03)
        iv_put = bs_implied_vol(call80, 100, 80, 0.03, 1.0)
        iv_call = bs_implied_vol(call120, 100, 120, 0.03, 1.0)
        assert iv_put > iv_call + 0.01

    def test_long_maturity_stable(self):
        # The little-trap form must not blow up at T = 10.
        p = heston_price(100, 100, 10.0, **KW)
        assert 0 < p < 100

    def test_validation(self):
        with pytest.raises(ValidationError):
            heston_price(100, 100, 1.0, v0=0.04, kappa=1.0, theta=0.04,
                         xi=0.3, rho=1.0, rate=0.05)
        with pytest.raises(ValidationError):
            heston_price(100, 100, 1.0, option="swap", **KW)


class TestModelSampling:
    def _model(self, steps=200):
        return HestonModel(100, rate=0.03, sampling_steps=steps,
                           v0=0.04, kappa=1.5, theta=0.06, xi=0.5, rho=-0.7)

    def test_martingale_property(self):
        m = self._model()
        st = m.sample_terminal(Philox4x32(1), 200_000, 1.0)
        # O(Δt) weak bias allowed on top of MC error.
        assert st.mean() == pytest.approx(m.terminal_mean(1.0), rel=0.005)

    def test_mc_matches_semi_analytic(self):
        m = self._model()
        exact = heston_price(100, 100, 1.0, **KW)
        r = MonteCarloEngine(150_000, technique=DirectSampling(), seed=3).price(
            m, Call(100.0), 1.0
        )
        assert abs(r.price - exact) < 4 * r.stderr + 0.05

    def test_mc_put_matches(self):
        m = self._model()
        exact = heston_price(100, 110, 1.0, option="put", **KW)
        r = MonteCarloEngine(150_000, technique=DirectSampling(), seed=4).price(
            m, Put(110.0), 1.0
        )
        assert abs(r.price - exact) < 4 * r.stderr + 0.05

    def test_finer_steps_reduce_bias(self):
        exact = heston_price(100, 100, 1.0, **KW)
        coarse = MonteCarloEngine(150_000, technique=DirectSampling(),
                                  seed=5).price(self._model(12), Call(100.0), 1.0)
        fine = MonteCarloEngine(150_000, technique=DirectSampling(),
                                seed=5).price(self._model(400), Call(100.0), 1.0)
        assert abs(fine.price - exact) <= abs(coarse.price - exact) + 2 * fine.stderr

    def test_deterministic(self):
        m = self._model(50)
        a = m.sample_terminal(Philox4x32(9), 100, 1.0)
        b = m.sample_terminal(Philox4x32(9), 100, 1.0)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValidationError):
            HestonModel(100, 0.04, 0.0, 0.04, 0.3, -0.5, 0.05)
        with pytest.raises(ValidationError):
            HestonModel(100, 0.04, 1.0, 0.04, 0.3, -1.0, 0.05)

"""Black–Scholes closed forms: reference values, parity, Greeks, implied vol."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analytic import bs_greeks, bs_implied_vol, bs_price
from repro.errors import ConvergenceError, ValidationError

spots = st.floats(min_value=20.0, max_value=500.0)
strikes = st.floats(min_value=20.0, max_value=500.0)
vols = st.floats(min_value=0.05, max_value=1.0)
rates = st.floats(min_value=-0.02, max_value=0.15)
expiries = st.floats(min_value=0.05, max_value=5.0)


class TestPrice:
    def test_hull_reference_value(self):
        # Hull, "Options, Futures and Other Derivatives": S=42, K=40,
        # r=10%, σ=20%, T=0.5 ⇒ call 4.76, put 0.81.
        call = bs_price(42, 40, 0.2, 0.10, 0.5)
        put = bs_price(42, 40, 0.2, 0.10, 0.5, option="put")
        assert call == pytest.approx(4.759422, abs=1e-5)
        assert put == pytest.approx(0.808599, abs=1e-5)

    def test_atm_approximation(self):
        # ATM forward: C ≈ 0.4 σ√T S for small rates.
        c = bs_price(100, 100, 0.2, 0.0, 1.0)
        assert c == pytest.approx(0.4 * 0.2 * 100, rel=0.01)

    @given(spots, strikes, vols, rates, expiries)
    def test_put_call_parity(self, s, k, v, r, t):
        c = bs_price(s, k, v, r, t)
        p = bs_price(s, k, v, r, t, option="put")
        assert c - p == pytest.approx(s - k * math.exp(-r * t), abs=1e-8)

    @given(spots, strikes, vols, rates, expiries)
    def test_no_arbitrage_bounds(self, s, k, v, r, t):
        c = bs_price(s, k, v, r, t)
        assert max(s - k * math.exp(-r * t), 0.0) - 1e-9 <= c <= s + 1e-9

    @given(spots, strikes, vols, rates, expiries)
    def test_monotone_in_vol(self, s, k, v, r, t):
        assert bs_price(s, k, v + 0.05, r, t) >= bs_price(s, k, v, r, t) - 1e-12

    def test_expired_option_returns_intrinsic(self):
        assert bs_price(110, 100, 0.2, 0.05, 0.0) == pytest.approx(10.0)
        assert bs_price(90, 100, 0.2, 0.05, 0.0, option="put") == pytest.approx(10.0)

    def test_dividend_lowers_call(self):
        plain = bs_price(100, 100, 0.2, 0.05, 1.0)
        with_div = bs_price(100, 100, 0.2, 0.05, 1.0, dividend=0.03)
        assert with_div < plain

    def test_invalid_option_type(self):
        with pytest.raises(ValidationError):
            bs_price(100, 100, 0.2, 0.05, 1.0, option="collar")


class TestGreeks:
    def test_finite_difference_consistency(self):
        s, k, v, r, t = 100.0, 95.0, 0.25, 0.03, 0.75
        g = bs_greeks(s, k, v, r, t)
        h = 1e-4
        fd_delta = (bs_price(s + h, k, v, r, t) - bs_price(s - h, k, v, r, t)) / (2 * h)
        fd_gamma = (
            bs_price(s + h, k, v, r, t) - 2 * g.price + bs_price(s - h, k, v, r, t)
        ) / (h * h)
        fd_vega = (bs_price(s, k, v + h, r, t) - bs_price(s, k, v - h, r, t)) / (2 * h)
        fd_rho = (bs_price(s, k, v, r + h, t) - bs_price(s, k, v, r - h, t)) / (2 * h)
        fd_theta = -(bs_price(s, k, v, r, t + h) - bs_price(s, k, v, r, t - h)) / (2 * h)
        assert g.delta == pytest.approx(fd_delta, abs=1e-6)
        assert g.gamma == pytest.approx(fd_gamma, abs=1e-4)
        assert g.vega == pytest.approx(fd_vega, abs=1e-4)
        assert g.rho == pytest.approx(fd_rho, abs=1e-4)
        assert g.theta == pytest.approx(fd_theta, abs=1e-4)

    @given(spots, strikes, vols, rates, expiries)
    def test_call_delta_bounds(self, s, k, v, r, t):
        g = bs_greeks(s, k, v, r, t)
        assert -1e-12 <= g.delta <= 1.0 + 1e-12
        assert g.gamma >= 0.0
        assert g.vega >= 0.0

    def test_put_delta_negative(self):
        g = bs_greeks(100, 100, 0.2, 0.05, 1.0, option="put")
        assert -1.0 <= g.delta <= 0.0

    def test_delta_parity(self):
        gc = bs_greeks(100, 100, 0.2, 0.05, 1.0)
        gp = bs_greeks(100, 100, 0.2, 0.05, 1.0, option="put")
        assert gc.delta - gp.delta == pytest.approx(1.0, abs=1e-10)
        assert gc.gamma == pytest.approx(gp.gamma, abs=1e-12)
        assert gc.vega == pytest.approx(gp.vega, abs=1e-10)


class TestImpliedVol:
    @given(spots, strikes, st.floats(0.08, 0.9), rates, st.floats(0.1, 3.0))
    def test_roundtrip(self, s, k, v, r, t):
        price = bs_price(s, k, v, r, t)
        if price < 1e-8:  # numerically dead options can't be inverted
            return
        iv = bs_implied_vol(price, s, k, r, t)
        # The roundtrip is always well-conditioned in *price* space.
        assert bs_price(s, k, iv, r, t) == pytest.approx(price, abs=1e-8)
        # Vol itself is only identifiable when vega is non-negligible
        # (deep ITM/OTM low-vol options price at intrinsic for any σ).
        vega = bs_greeks(s, k, v, r, t).vega
        if vega > 1e-3:
            assert iv == pytest.approx(v, abs=2e-3)

    def test_rejects_arbitrage_violations(self):
        with pytest.raises(ConvergenceError):
            bs_implied_vol(200.0, 100, 100, 0.05, 1.0)  # above the spot
        with pytest.raises(ConvergenceError):
            bs_implied_vol(-1.0, 100, 100, 0.05, 1.0)

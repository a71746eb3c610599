"""Hypothesis property tests for the closed-form parity identities.

These complement the fixed-point accuracy tests: instead of checking one
contract against one reference number, they assert the *identities* the
formulas must satisfy over a whole region of parameter space — Margrabe
symmetry/parity/homogeneity, Kirk's approximation collapsing to the exact
exchange price at zero strike, geometric-basket upper bounds, and barrier
in-out parity (including dividends, which the fixed-point tests skip).
"""

from __future__ import annotations

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.analytic import (
    barrier_price,
    bs_price,
    geometric_basket_price,
    kirk_spread_price,
    margrabe_price,
)
from repro.market import MultiAssetGBM


def approx(expected, rel=1e-9, abs=1e-9):
    import pytest

    return pytest.approx(expected, rel=rel, abs=abs)


spots = st.floats(50.0, 200.0)
vols = st.floats(0.05, 0.6)
rhos = st.floats(-0.9, 0.9)
rates = st.floats(0.0, 0.1)
divs = st.floats(0.0, 0.05)
expiries = st.floats(0.1, 3.0)


class TestMargrabe:
    @given(s1=spots, s2=spots, v1=vols, v2=vols, rho=rhos, t=expiries,
           q1=divs, q2=divs)
    def test_exchange_parity(self, s1, s2, v1, v2, rho, t, q1, q2):
        # max(S1−S2,0) − max(S2−S1,0) = S1−S2, so the two exchange options
        # differ by exactly the forward spread.
        long_leg = margrabe_price(s1, s2, v1, v2, rho, t,
                                  dividend1=q1, dividend2=q2)
        short_leg = margrabe_price(s2, s1, v2, v1, rho, t,
                                   dividend1=q2, dividend2=q1)
        fwd_spread = s1 * math.exp(-q1 * t) - s2 * math.exp(-q2 * t)
        assert long_leg - short_leg == approx(fwd_spread)

    @given(s1=spots, s2=spots, v1=vols, v2=vols, rho=rhos, t=expiries,
           lam=st.floats(0.1, 10.0))
    def test_scaling_homogeneity(self, s1, s2, v1, v2, rho, t, lam):
        base = margrabe_price(s1, s2, v1, v2, rho, t)
        scaled = margrabe_price(lam * s1, lam * s2, v1, v2, rho, t)
        assert scaled == approx(lam * base)

    @given(s1=spots, s2=spots, v1=vols, v2=vols, rho=rhos, t=expiries)
    def test_bounds(self, s1, s2, v1, v2, rho, t):
        # Intrinsic ≤ price ≤ long-leg spot (the option never exceeds the
        # value of the asset it delivers).
        price = margrabe_price(s1, s2, v1, v2, rho, t)
        assert max(s1 - s2, 0.0) - 1e-9 <= price <= s1 + 1e-9


class TestKirk:
    @given(s1=spots, s2=spots, v1=vols, v2=vols, rho=rhos, r=rates,
           t=expiries)
    def test_zero_strike_is_margrabe(self, s1, s2, v1, v2, rho, r, t):
        # At K = 0 Kirk's blend weight w = F2/(F2+K) = 1, so the
        # approximation reduces to the exact exchange price — independent
        # of the rate, which cancels.
        kirk = kirk_spread_price(s1, s2, 0.0, v1, v2, rho, r, t)
        exact = margrabe_price(s1, s2, v1, v2, rho, t)
        assert kirk == approx(exact)

    @given(s1=spots, s2=spots, v1=vols, v2=vols, rho=rhos, r=rates,
           t=expiries)
    def test_monotone_decreasing_in_strike(self, s1, s2, v1, v2, rho, r, t):
        strikes = (0.0, 5.0, 10.0, 20.0)
        prices = [kirk_spread_price(s1, s2, k, v1, v2, rho, r, t)
                  for k in strikes]
        for lo, hi in zip(prices, prices[1:]):
            assert hi <= lo + 1e-9


class TestGeometricBasket:
    @given(spot=spots, vol=vols, rho=st.floats(0.0, 0.9), r=rates,
           t=expiries, strike=st.floats(60.0, 180.0),
           dim=st.integers(2, 5))
    def test_bounded_by_vanilla_sum(self, spot, vol, rho, r, t, strike, dim):
        # Geometric mean ≤ arithmetic mean and (·)⁺ is subadditive, so
        # C_geo ≤ C_arith ≤ Σ wᵢ · C_BS(Sᵢ, K).
        model = MultiAssetGBM.equicorrelated(dim, spot, vol, r, rho)
        w = [1.0 / dim] * dim
        geo = geometric_basket_price(model, w, strike, t)
        vanilla_sum = sum(wi * bs_price(spot, strike, vol, r, t)
                          for wi in w)
        assert geo <= vanilla_sum + 1e-9

    @given(spot=spots, vol=vols, rho=st.floats(0.0, 0.9), r=rates,
           t=expiries, strike=st.floats(60.0, 180.0))
    def test_degenerate_weights_equal_vanilla(self, spot, vol, rho, r, t,
                                              strike):
        model = MultiAssetGBM.equicorrelated(3, spot, vol, r, rho)
        geo = geometric_basket_price(model, [1.0, 0.0, 0.0], strike, t)
        vanilla = bs_price(spot, strike, vol, r, t)
        assert geo == approx(vanilla)

class TestBarrierInOutParity:
    @given(spot=spots, strike=st.floats(60.0, 180.0), vol=vols, r=rates,
           t=expiries,
           direction=st.sampled_from(["up", "down"]),
           barrier_gap=st.floats(1.05, 2.0))
    def test_in_plus_out_is_vanilla(self, spot, strike, vol, r, t,
                                    direction, barrier_gap):
        # Knock-in + knock-out = vanilla, for both barrier directions.
        barrier = spot * barrier_gap if direction == "up" else spot / barrier_gap
        common = dict(vol=vol, rate=r, expiry=t)
        knocked_in = barrier_price(spot, strike, barrier,
                                   kind=f"{direction}-and-in", **common)
        knocked_out = barrier_price(spot, strike, barrier,
                                    kind=f"{direction}-and-out", **common)
        vanilla = bs_price(spot, strike, vol, r, t)
        assert knocked_in + knocked_out == approx(vanilla)

    @given(spot=spots, strike=st.floats(60.0, 180.0), vol=vols, r=rates,
           t=expiries)
    def test_distant_barrier_is_vanilla(self, spot, strike, vol, r, t):
        # An unreachable knock-out barrier leaves the vanilla price intact.
        # (50x spot is not unreachable: at vol 0.56, T = 2 it moves a call
        # by 3e-4, so the barrier sits at 1000x.)
        vanilla = bs_price(spot, strike, vol, r, t)
        far_out = barrier_price(spot, strike, spot * 1000.0, vol, r, t,
                                kind="up-and-out")
        assert far_out == approx(vanilla, rel=1e-6, abs=1e-6)


def test_margrabe_rate_independence():
    # The discounting and drift cancel: Margrabe needs no rate argument,
    # and Kirk at K=0 must agree for *any* rate.
    for rate in (0.0, 0.03, 0.1):
        kirk = kirk_spread_price(100.0, 96.0, 0.0, 0.25, 0.2, 0.5, rate, 1.0)
        assert kirk == approx(margrabe_price(100.0, 96.0, 0.25, 0.2,
                                                    0.5, 1.0))

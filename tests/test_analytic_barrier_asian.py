"""Reiner–Rubinstein barriers and discrete geometric Asian closed forms."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analytic import barrier_price, bs_price, geometric_asian_price
from repro.analytic.asian import geometric_asian_moments
from repro.errors import ValidationError

strikes = st.floats(80.0, 120.0)
barriers_up = st.floats(110.0, 160.0)
barriers_down = st.floats(60.0, 95.0)
vols = st.floats(0.1, 0.5)


class TestBarrierParity:
    @given(strikes, barriers_up, vols)
    def test_up_in_out_parity(self, k, h, v):
        common = dict(vol=v, rate=0.05, expiry=1.0)
        pin = barrier_price(100, k, h, kind="up-and-in", **common)
        pout = barrier_price(100, k, h, kind="up-and-out", **common)
        vanilla = bs_price(100, k, v, 0.05, 1.0)
        assert pin + pout == pytest.approx(vanilla, abs=1e-9)

    @given(strikes, barriers_down, vols)
    def test_down_in_out_parity(self, k, h, v):
        common = dict(vol=v, rate=0.05, expiry=1.0)
        pin = barrier_price(100, k, h, kind="down-and-in", **common)
        pout = barrier_price(100, k, h, kind="down-and-out", **common)
        vanilla = bs_price(100, k, v, 0.05, 1.0)
        assert pin + pout == pytest.approx(vanilla, abs=1e-9)


class TestBarrierLimits:
    def test_far_barrier_out_equals_vanilla(self):
        # An unreachable knock-out barrier never knocks.
        v = barrier_price(100, 100, 1e5, 0.2, 0.05, 1.0, kind="up-and-out")
        assert v == pytest.approx(bs_price(100, 100, 0.2, 0.05, 1.0), abs=1e-6)

    def test_far_barrier_in_worthless(self):
        v = barrier_price(100, 100, 1e5, 0.2, 0.05, 1.0, kind="up-and-in")
        assert v == pytest.approx(0.0, abs=1e-6)

    def test_breached_out_is_worthless(self):
        v = barrier_price(130, 100, 120, 0.2, 0.05, 1.0, kind="up-and-out")
        assert v == 0.0

    def test_breached_in_is_vanilla(self):
        v = barrier_price(130, 100, 120, 0.2, 0.05, 1.0, kind="up-and-in")
        assert v == pytest.approx(bs_price(130, 100, 0.2, 0.05, 1.0))

    def test_out_option_below_vanilla(self):
        out = barrier_price(100, 100, 120, 0.2, 0.05, 1.0, kind="up-and-out")
        assert 0.0 <= out <= bs_price(100, 100, 0.2, 0.05, 1.0)

    def test_known_regression_value(self):
        # Haug-style example: down-and-out call S=100 K=100 H=95 σ=25%
        # r=10% T=1 — pinned from this implementation (cross-validated by
        # parity + MC in the integration suite).
        v = barrier_price(100, 100, 95, 0.25, 0.10, 1.0, kind="down-and-out")
        vanilla = bs_price(100, 100, 0.25, 0.10, 1.0)
        # The close-in barrier knocks out roughly half the vanilla value.
        assert 0.25 * vanilla < v < 0.75 * vanilla

    def test_invalid_kind(self):
        with pytest.raises(ValidationError):
            barrier_price(100, 100, 120, 0.2, 0.05, 1.0, kind="diagonal-and-out")


class TestGeometricAsian:
    def test_single_fixing_is_terminal_bs(self):
        # m=1: the "average" is S(T) itself.
        a = geometric_asian_price(100, 100, 0.2, 0.05, 1.0, steps=1)
        assert a == pytest.approx(bs_price(100, 100, 0.2, 0.05, 1.0), abs=1e-10)

    def test_below_vanilla(self):
        # Averaging reduces variance ⇒ cheaper than the vanilla call.
        a = geometric_asian_price(100, 100, 0.2, 0.05, 1.0, steps=12)
        assert a < bs_price(100, 100, 0.2, 0.05, 1.0)

    def test_variance_decreases_with_more_fixings(self):
        _, v12 = geometric_asian_moments(100, 0.2, 0.05, 1.0, 12)
        _, v252 = geometric_asian_moments(100, 0.2, 0.05, 1.0, 252)
        _, v1 = geometric_asian_moments(100, 0.2, 0.05, 1.0, 1)
        assert v252 < v12 < v1

    def test_continuous_limit(self):
        # m → ∞: Var → σ²T/3, mean drift → half the terminal drift.
        mean, std = geometric_asian_moments(100, 0.2, 0.05, 1.0, 100_000)
        assert std**2 == pytest.approx(0.2**2 / 3.0, rel=1e-3)
        drift = 0.05 - 0.02
        assert mean == pytest.approx(math.log(100) + 0.5 * drift, rel=1e-3)

    def test_put_call_parity_on_lognormal_average(self):
        c = geometric_asian_price(100, 90, 0.3, 0.05, 2.0, 24)
        p = geometric_asian_price(100, 90, 0.3, 0.05, 2.0, 24, option="put")
        mean, std = geometric_asian_moments(100, 0.3, 0.05, 2.0, 24)
        df = math.exp(-0.05 * 2.0)
        fwd = math.exp(mean + 0.5 * std * std)
        assert c - p == pytest.approx(df * (fwd - 90), abs=1e-9)

    def test_invalid_option(self):
        with pytest.raises(ValidationError):
            geometric_asian_price(100, 100, 0.2, 0.05, 1.0, 12, option="chooser")

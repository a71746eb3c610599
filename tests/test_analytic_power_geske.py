"""Power options: closed form against the payoff under MC."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analytic import bs_price, power_option_price
from repro.errors import ValidationError
from repro.market import MultiAssetGBM
from repro.payoffs import PowerCall, PowerPut
from repro.rng import Philox4x32


class TestPowerAnalytic:
    def test_power_one_is_vanilla(self):
        v = power_option_price(100, 100, 1.0, 0.2, 0.05, 1.0)
        assert v == pytest.approx(bs_price(100, 100, 0.2, 0.05, 1.0), abs=1e-12)

    @given(st.floats(0.5, 3.0))
    def test_put_call_parity(self, p):
        k = 100.0**p
        c = power_option_price(100, k, p, 0.2, 0.05, 1.0)
        v = power_option_price(100, k, p, 0.2, 0.05, 1.0, option="put")
        m = math.log(100) + (0.05 - 0.02) * 1.0
        fwd_p = math.exp(p * m + 0.5 * (p * 0.2) ** 2)
        assert c - v == pytest.approx(math.exp(-0.05) * (fwd_p - k), rel=1e-9)

    def test_mc_agreement(self):
        model = MultiAssetGBM.single(100, 0.2, 0.05)
        exact = power_option_price(100, 10500.0, 2.0, 0.2, 0.05, 1.0)
        s_term = model.sample_terminal(Philox4x32(5), 400_000, 1.0)
        mc = math.exp(-0.05) * PowerCall(10500.0, 2.0).terminal(s_term).mean()
        assert mc == pytest.approx(exact, rel=0.01)

    def test_mc_put_agreement(self):
        model = MultiAssetGBM.single(100, 0.2, 0.05)
        exact = power_option_price(100, 9.0, 0.5, 0.2, 0.05, 1.0, option="put")
        s_term = model.sample_terminal(Philox4x32(6), 400_000, 1.0)
        mc = math.exp(-0.05) * PowerPut(9.0, 0.5).terminal(s_term).mean()
        assert mc == pytest.approx(exact, rel=0.02)

    def test_payoff_validation(self):
        with pytest.raises(ValidationError):
            PowerCall(100.0, 0.0)
        with pytest.raises(ValidationError):
            PowerCall(100.0, 2.0).terminal(np.array([[-1.0]]))

    def test_analytic_validation(self):
        with pytest.raises(ValidationError):
            power_option_price(100, 100, 2.0, 0.2, 0.05, 1.0, option="digital")


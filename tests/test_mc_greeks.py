"""Monte Carlo Greeks against the analytic BSM sensitivities."""

import numpy as np
import pytest

from repro.analytic import bs_greeks
from repro.errors import ValidationError
from repro.market import MultiAssetGBM
from repro.mc import mc_delta_pathwise, mc_greeks_bump
from repro.payoffs import BasketCall, BasketPut, Call, CallOnMax, Put


class TestPathwiseDelta:
    def test_call_delta(self, model_1d):
        d, se = mc_delta_pathwise(model_1d, Call(100.0), 1.0, 300_000, seed=1)
        exact = bs_greeks(100, 100, 0.2, 0.05, 1.0).delta
        assert abs(d[0] - exact) < 4 * se[0] + 1e-3

    def test_put_delta_negative(self, model_1d):
        d, se = mc_delta_pathwise(model_1d, Put(100.0), 1.0, 300_000, seed=2)
        exact = bs_greeks(100, 100, 0.2, 0.05, 1.0, option="put").delta
        assert d[0] < 0
        assert abs(d[0] - exact) < 4 * se[0] + 1e-3

    def test_basket_deltas_sum_sensibly(self, model_4d):
        w = [0.25] * 4
        d, se = mc_delta_pathwise(model_4d, BasketCall(w, 100.0), 1.0, 200_000, seed=3)
        assert d.shape == (4,)
        # Symmetric market ⇒ symmetric deltas.
        assert np.allclose(d, d.mean(), atol=4 * se.max() + 1e-3)
        assert np.all(d > 0)

    def test_basket_put_deltas_negative(self, model_4d):
        d, _ = mc_delta_pathwise(model_4d, BasketPut([0.25] * 4, 100.0), 1.0,
                                 100_000, seed=4)
        assert np.all(d < 0)

    def test_unsupported_payoff_raises(self, model_2d):
        with pytest.raises(ValidationError, match="pathwise"):
            mc_delta_pathwise(model_2d, CallOnMax(100.0), 1.0, 1000)


class TestBumpGreeks:
    def test_matches_analytic_for_call(self, model_1d):
        g = mc_greeks_bump(model_1d, Call(100.0), 1.0, 150_000, seed=5)
        exact = bs_greeks(100, 100, 0.2, 0.05, 1.0)
        assert g.delta[0] == pytest.approx(exact.delta, abs=0.01)
        assert g.gamma[0] == pytest.approx(exact.gamma, abs=0.004)
        assert g.vega[0] == pytest.approx(exact.vega, rel=0.05)

    def test_common_random_numbers_make_differences_smooth(self, model_1d):
        # With CRN the bump estimator is far tighter than the naive
        # independent-samples version would be; delta noise under repeated
        # seeds stays tiny.
        deltas = [
            mc_greeks_bump(model_1d, Call(100.0), 1.0, 30_000, seed=s).delta[0]
            for s in (1, 2, 3)
        ]
        assert np.std(deltas) < 0.01

    def test_multi_asset_shapes(self, model_4d):
        g = mc_greeks_bump(model_4d, BasketCall([0.25] * 4, 100.0), 1.0, 40_000, seed=6)
        assert g.delta.shape == (4,)
        assert g.gamma.shape == (4,)
        assert g.vega.shape == (4,)

    def test_symmetric_market_symmetric_greeks(self, model_4d):
        g = mc_greeks_bump(model_4d, BasketCall([0.25] * 4, 100.0), 1.0, 60_000, seed=7)
        assert np.allclose(g.delta, g.delta.mean(), atol=0.01)
        assert np.allclose(g.vega, g.vega.mean(), atol=0.6)

    def test_pathwise_and_bump_agree(self, model_4d):
        payoff = BasketCall([0.25] * 4, 100.0)
        pw, se = mc_delta_pathwise(model_4d, payoff, 1.0, 200_000, seed=8)
        bump = mc_greeks_bump(model_4d, payoff, 1.0, 100_000, seed=8)
        assert np.allclose(pw, bump.delta, atol=0.02)

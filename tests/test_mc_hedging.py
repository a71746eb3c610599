"""Delta-hedging simulation: the Boyle–Emanuel facts."""

import pytest

from repro.errors import ValidationError
from repro.market import MultiAssetGBM
from repro.mc import simulate_delta_hedge


@pytest.fixture
def market():
    return MultiAssetGBM.single(100.0, 0.2, 0.05)


class TestCorrectlySpecifiedHedge:
    def test_mean_pnl_near_zero(self, market):
        r = simulate_delta_hedge(market, 100.0, 1.0, 80, 20_000, seed=1)
        assert abs(r.mean_pnl) < 4 * r.stderr_mean + 0.01

    def test_std_shrinks_like_inverse_sqrt(self, market):
        stds = [
            simulate_delta_hedge(market, 100.0, 1.0, m, 20_000, seed=2).std_pnl
            for m in (10, 40, 160)
        ]
        # 4× rebalances ⇒ ~2× smaller hedge error.
        assert stds[1] == pytest.approx(stds[0] / 2.0, rel=0.2)
        assert stds[2] == pytest.approx(stds[1] / 2.0, rel=0.2)

    def test_residual_risk_small_vs_premium(self, market):
        r = simulate_delta_hedge(market, 100.0, 1.0, 160, 10_000, seed=4)
        assert r.std_pnl < 0.1 * r.premium


class TestMisspecifiedHedge:
    def test_sign_of_vol_gap(self, market):
        # Sold + hedged at 15% while realized is 20% ⇒ systematic loss;
        # sold at 25% ⇒ systematic gain (short gamma earns the overpriced
        # premium).
        low = simulate_delta_hedge(market, 100.0, 1.0, 80, 20_000,
                                   hedge_vol=0.15, seed=5)
        high = simulate_delta_hedge(market, 100.0, 1.0, 80, 20_000,
                                    hedge_vol=0.25, seed=5)
        assert low.mean_pnl < -10 * low.stderr_mean
        assert high.mean_pnl > 10 * high.stderr_mean

    def test_pnl_scale_matches_premium_gap(self, market):
        # The systematic P&L ≈ premium(σ_hedge) − premium(σ_true) for small
        # gaps (vega argument).
        from repro.analytic import bs_price

        r = simulate_delta_hedge(market, 100.0, 1.0, 160, 40_000,
                                 hedge_vol=0.25, seed=6)
        gap = bs_price(100, 100, 0.25, 0.05, 1.0) - bs_price(100, 100, 0.2, 0.05, 1.0)
        assert r.mean_pnl == pytest.approx(gap, rel=0.15)

    def test_dividend_market_supported(self):
        model = MultiAssetGBM([100.0], [0.2], 0.05, [0.03])
        r = simulate_delta_hedge(model, 100.0, 1.0, 80, 20_000, seed=7)
        assert abs(r.mean_pnl) < 4 * r.stderr_mean + 0.02


class TestValidation:
    def test_single_asset_only(self):
        model = MultiAssetGBM.equicorrelated(2, 100, 0.2, 0.05, 0.3)
        with pytest.raises(ValidationError):
            simulate_delta_hedge(model, 100.0, 1.0, 10, 100)

    def test_result_helpers(self, market):
        r = simulate_delta_hedge(market, 100.0, 1.0, 10, 1_000, seed=8)
        assert "rebalances" in str(r)

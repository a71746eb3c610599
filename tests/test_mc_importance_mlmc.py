"""Importance sampling and multilevel Monte Carlo."""

import numpy as np
import pytest

from repro.analytic import bs_price, geometric_asian_price
from repro.errors import ValidationError
from repro.market import MultiAssetGBM
from repro.mc import (
    ImportanceSampling,
    MonteCarloEngine,
    PlainMC,
    drift_to_strike,
    mlmc_price,
)
from repro.payoffs import (
    AsianArithmeticCall,
    AsianGeometricCall,
    BasketCall,
    Call,
    CallOnMax,
)
from repro.rng import Philox4x32


class TestDriftToStrike:
    def test_zero_shift_when_already_itm(self, model_1d):
        shift = drift_to_strike(model_1d, Call(50.0), 1.0)
        assert np.allclose(shift, 0.0)

    def test_shift_hits_strike(self, model_1d):
        shift = drift_to_strike(model_1d, Call(180.0), 1.0)
        prices = model_1d.terminal_from_normals(shift[None, :], 1.0)
        assert prices[0, 0] == pytest.approx(180.0, rel=1e-6)

    def test_basket_shift(self, model_4d):
        payoff = BasketCall([0.25] * 4, 160.0)
        shift = drift_to_strike(model_4d, payoff, 1.0)
        prices = model_4d.terminal_from_normals(shift[None, :], 1.0)
        assert payoff.basket_level(prices)[0] == pytest.approx(160.0, rel=1e-6)

    def test_requires_strike(self, model_1d):
        from repro.payoffs import FloatingStrikeLookbackCall

        with pytest.raises(ValidationError, match="strike"):
            drift_to_strike(model_1d, FloatingStrikeLookbackCall(), 1.0)

    def test_zero_strike_spread_needs_no_shift(self, model_2d):
        # ExchangeOption carries strike = 0, which every positive price
        # exceeds — the auto-shift is legitimately zero.
        from repro.payoffs import ExchangeOption

        assert np.allclose(drift_to_strike(model_2d, ExchangeOption(), 1.0), 0.0)


class TestImportanceSampling:
    def test_unbiased_on_otm_call(self, model_1d):
        exact = bs_price(100, 180, 0.2, 0.05, 1.0)
        shift = drift_to_strike(model_1d, Call(180.0), 1.0)
        r = MonteCarloEngine(100_000, technique=ImportanceSampling(shift),
                            seed=1).price(model_1d, Call(180.0), 1.0)
        assert abs(r.price - exact) <= 5 * r.stderr

    def test_large_variance_reduction_deep_otm(self, model_1d):
        shift = drift_to_strike(model_1d, Call(200.0), 1.0)
        plain = MonteCarloEngine(100_000, seed=2).price(model_1d, Call(200.0), 1.0)
        imp = MonteCarloEngine(100_000, technique=ImportanceSampling(shift),
                              seed=2).price(model_1d, Call(200.0), 1.0)
        assert imp.stderr < 0.2 * max(plain.stderr, 1e-12)

    def test_zero_shift_equals_plain(self, model_1d):
        plain = PlainMC().estimate(model_1d, Call(100.0), 1.0, 20_000,
                                   Philox4x32(3))
        imp = ImportanceSampling(np.zeros(1)).estimate(
            model_1d, Call(100.0), 1.0, 20_000, Philox4x32(3)
        )
        assert imp[0] == pytest.approx(plain[0], rel=1e-12)

    def test_multi_asset_otm_basket(self, model_4d):
        payoff = BasketCall([0.25] * 4, 170.0)
        shift = drift_to_strike(model_4d, payoff, 1.0)
        plain = MonteCarloEngine(100_000, seed=4).price(model_4d, payoff, 1.0)
        imp = MonteCarloEngine(100_000, technique=ImportanceSampling(shift),
                              seed=4).price(model_4d, payoff, 1.0)
        assert imp.stderr < plain.stderr
        assert abs(imp.price - plain.price) < 5 * plain.stderr + 1e-4

    def test_shift_length_checked(self, model_4d):
        with pytest.raises(ValidationError):
            ImportanceSampling([1.0]).partial(
                model_4d, BasketCall([0.25] * 4, 100.0), 1.0, 100, Philox4x32(0)
            )

    def test_path_dependent_rejected(self, model_1d):
        with pytest.raises(ValidationError):
            ImportanceSampling([1.0]).partial(
                model_1d, AsianGeometricCall(100.0), 1.0, 100, Philox4x32(0),
                steps=12,
            )

    def test_parallel_composes(self, model_1d):
        from repro.engine import ParallelMCPricer

        shift = drift_to_strike(model_1d, Call(180.0), 1.0)
        pricer = ParallelMCPricer(40_000, technique=ImportanceSampling(shift),
                                  seed=5)
        r = pricer.price(model_1d, Call(180.0), 1.0, 8)
        exact = bs_price(100, 180, 0.2, 0.05, 1.0)
        assert abs(r.price - exact) < 5 * r.stderr + 1e-5


class TestMLMC:
    def test_matches_fine_level_estimate(self, model_1d):
        res = mlmc_price(model_1d, AsianArithmeticCall(100.0), 1.0,
                         base_steps=4, levels=3, target_stderr=0.02, seed=1)
        fine = MonteCarloEngine(150_000, steps=32, seed=2).price(
            model_1d, AsianArithmeticCall(100.0), 1.0
        )
        assert abs(res.price - fine.price) < 4 * (res.stderr + fine.stderr) + 0.01

    def test_geometric_asian_near_closed_form(self, model_1d):
        res = mlmc_price(model_1d, AsianGeometricCall(100.0), 1.0,
                         base_steps=8, levels=3, target_stderr=0.01, seed=3)
        exact = geometric_asian_price(100, 100, 0.2, 0.05, 1.0, 64)
        assert abs(res.price - exact) < 5 * res.stderr + 0.01

    def test_level_variances_decay(self, model_1d):
        res = mlmc_price(model_1d, AsianArithmeticCall(100.0), 1.0,
                         base_steps=4, levels=4, target_stderr=0.02, seed=4)
        v = res.var_per_level
        # Coupled corrections: V_ℓ falls by ≳2× per level past level 1.
        assert v[2] < v[1]
        assert v[4] < v[2]
        assert v[4] < 0.05 * v[0]

    def test_sample_counts_decay(self, model_1d):
        res = mlmc_price(model_1d, AsianArithmeticCall(100.0), 1.0,
                         base_steps=4, levels=4, target_stderr=0.02, seed=5)
        n = res.n_per_level
        assert n[0] > n[2] > n[4]

    def test_cheaper_than_single_level_at_matched_error(self, model_1d):
        res = mlmc_price(model_1d, AsianArithmeticCall(100.0), 1.0,
                         base_steps=4, levels=4, target_stderr=0.01, seed=6)
        # Single-level cost for the same stderr on the finest grid:
        # N_single = (σ/ε)², cost = N_single × 64 steps.
        fine = MonteCarloEngine(20_000, steps=64, seed=7).price(
            model_1d, AsianArithmeticCall(100.0), 1.0
        )
        sigma = fine.stderr * np.sqrt(20_000)
        single_cost = (sigma / 0.01) ** 2 * 64
        assert res.cost_units < 0.5 * single_cost

    def test_deterministic(self, model_1d):
        a = mlmc_price(model_1d, AsianArithmeticCall(100.0), 1.0,
                       base_steps=4, levels=2, target_stderr=0.05, seed=8)
        b = mlmc_price(model_1d, AsianArithmeticCall(100.0), 1.0,
                       base_steps=4, levels=2, target_stderr=0.05, seed=8)
        assert a.price == b.price

    def test_multi_asset_supported(self, model_2d):
        payoff = AsianArithmeticCall(100.0, asset=0, dim=2)
        res = mlmc_price(model_2d, AsianArithmeticCall(100.0, dim=2), 1.0,
                         base_steps=4, levels=2, target_stderr=0.05, seed=9)
        assert np.isfinite(res.price) and res.price > 0

    def test_terminal_payoff_rejected(self, model_1d):
        with pytest.raises(ValidationError, match="path-dependent"):
            mlmc_price(model_1d, Call(100.0), 1.0, levels=2)

    def test_str(self, model_1d):
        res = mlmc_price(model_1d, AsianArithmeticCall(100.0), 1.0,
                         base_steps=4, levels=1, target_stderr=0.1, seed=10)
        assert "mlmc" in str(res)

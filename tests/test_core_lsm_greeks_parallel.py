"""Parallel LSM and parallel Greeks."""

import numpy as np
import pytest

from repro.analytic import bs_greeks, bs_price
from repro.engine import ParallelLSMPricer, ParallelMCGreeks
from repro.errors import ValidationError
from repro.lattice import binomial_price
from repro.market import MultiAssetGBM, constant_correlation
from repro.payoffs import BasketCall, Call, CallOnMax, Put


class TestParallelLSM:
    def test_p_invariance_of_the_estimate(self, model_1d):
        pricer = ParallelLSMPricer(50_000, 25, seed=7)
        prices = {p: pricer.price(model_1d, Put(100.0), 1.0, p).price
                  for p in (1, 3, 8)}
        # Same master-stream paths at every P; only the allreduce order
        # differs, which these sums absorb below 1e-9.
        assert max(prices.values()) - min(prices.values()) < 1e-9

    def test_matches_binomial_american_put(self, model_1d):
        tree = binomial_price(100, Put(100.0), 0.2, 0.05, 1.0, 2000,
                              american=True).price
        r = ParallelLSMPricer(100_000, 50, seed=1).price(model_1d, Put(100.0),
                                                         1.0, 4)
        assert tree - 6 * r.stderr - 0.04 < r.price < tree + 4 * r.stderr

    def test_beats_european_value(self, model_1d):
        euro = bs_price(100, 100, 0.2, 0.05, 1.0, option="put")
        r = ParallelLSMPricer(60_000, 25, seed=2).price(model_1d, Put(100.0),
                                                        1.0, 2)
        assert r.price > euro + 2 * r.stderr

    def test_two_asset_bermudan(self):
        model = MultiAssetGBM(
            [100.0, 100.0], [0.2, 0.2], 0.05, dividends=[0.1, 0.1],
            correlation=constant_correlation(2, 0.0),
        )
        from repro.lattice import beg_price

        tree = beg_price(model, CallOnMax(100.0), 1.0, 90, american=True).price
        r = ParallelLSMPricer(60_000, 12, seed=3).price(model, CallOnMax(100.0),
                                                        1.0, 4)
        assert 0.93 * tree < r.price < 1.03 * tree

    def test_scaling_between_mc_and_lattice(self, model_1d):
        # The per-date allreduce caps LSM below embarrassingly-parallel MC
        # but far above the per-level lattice.
        pricer = ParallelLSMPricer(100_000, 50, seed=1)
        rs = pricer.sweep(model_1d, Put(100.0), 1.0, [1, 32])
        speedup = rs[0].sim_time / rs[1].sim_time
        assert 10.0 < speedup < 30.0

    def test_comm_grows_with_exercise_dates(self, model_1d):
        few = ParallelLSMPricer(40_000, 10, seed=1).price(model_1d, Put(100.0),
                                                          1.0, 4)
        many = ParallelLSMPricer(40_000, 40, seed=1).price(model_1d, Put(100.0),
                                                           1.0, 4)
        assert many.comm_time > few.comm_time

    def test_meta(self, model_1d):
        r = ParallelLSMPricer(10_000, 5, degree=3, seed=1).price(
            model_1d, Put(100.0), 1.0, 2
        )
        assert r.engine == "lsm"
        assert r.meta["degree"] == 3
        assert r.meta["basis_size"] == 4  # 1, x, x², x³

    def test_validation(self, model_2d):
        with pytest.raises(ValidationError):
            ParallelLSMPricer(100, 5).price(model_2d, Put(100.0), 1.0, 2)
        with pytest.raises(ValidationError):
            ParallelLSMPricer(4, 5).price(
                MultiAssetGBM.single(100, 0.2, 0.05), Put(100.0), 1.0, 8
            )


class TestParallelGreeks:
    def test_matches_analytic_single_asset(self, model_1d):
        g = ParallelMCGreeks(200_000, seed=9).compute(model_1d, Call(100.0),
                                                      1.0, 4)
        exact = bs_greeks(100, 100, 0.2, 0.05, 1.0)
        assert g.delta[0] == pytest.approx(exact.delta, abs=0.01)
        assert g.gamma[0] == pytest.approx(exact.gamma, abs=0.005)
        assert g.vega[0] == pytest.approx(exact.vega, rel=0.05)

    def test_symmetric_basket_greeks(self, model_4d):
        g = ParallelMCGreeks(60_000, seed=5).compute(
            model_4d, BasketCall([0.25] * 4, 100.0), 1.0, 4
        )
        assert np.allclose(g.delta, g.delta.mean(), atol=0.01)
        assert np.all(g.vega > 0)

    def test_backend_free_determinism(self, model_4d):
        pg = ParallelMCGreeks(20_000, seed=5)
        a = pg.compute(model_4d, BasketCall([0.25] * 4, 100.0), 1.0, 4)
        b = pg.compute(model_4d, BasketCall([0.25] * 4, 100.0), 1.0, 4)
        assert np.array_equal(a.delta, b.delta)

    def test_scales_like_pricing(self, model_4d):
        pg = ParallelMCGreeks(50_000, seed=5)
        payoff = BasketCall([0.25] * 4, 100.0)
        t1 = pg.compute(model_4d, payoff, 1.0, 1).run.sim_time
        t8 = pg.compute(model_4d, payoff, 1.0, 8).run.sim_time
        assert t1 / t8 > 7.0

    def test_work_scales_with_model_count(self, model_1d, model_4d):
        # 4 assets ⇒ 17 models vs 5 for one asset; compute time ratio ≈
        # (17·units_d4)/(5·units_d1) at equal paths.
        t1 = ParallelMCGreeks(20_000, seed=1).compute(model_1d, Call(100.0),
                                                      1.0, 1).run.compute_time
        t4 = ParallelMCGreeks(20_000, seed=1).compute(
            model_4d, BasketCall([0.25] * 4, 100.0), 1.0, 1
        ).run.compute_time
        assert t4 > 5 * t1

    def test_crn_makes_greeks_stable_across_seeds(self, model_1d):
        deltas = [
            ParallelMCGreeks(30_000, seed=s).compute(model_1d, Call(100.0),
                                                     1.0, 2).delta[0]
            for s in (1, 2, 3)
        ]
        assert np.std(deltas) < 0.01

    def test_validation(self, model_2d):
        with pytest.raises(ValidationError):
            ParallelMCGreeks(100).compute(model_2d, Call(100.0), 1.0, 2)
        with pytest.raises(ValidationError):
            ParallelMCGreeks(4).compute(
                MultiAssetGBM.single(100, 0.2, 0.05), Call(100.0), 1.0, 8
            )

"""Golden regression values.

These pin *exact* outputs of deterministic code paths (analytic formulas,
seeded MC, lattices, the simulated machine) so that accidental numerical
drift — a refactor changing a reduction order, a constant, a direction
number — fails loudly. Tolerances are tight (1e-9 relative) but not
bit-exact, allowing benign platform-level libm differences.

If an INTENTIONAL change shifts one of these (e.g. a new RNG stream
layout), re-pin the constant in the same commit and say why.
"""

import pytest

from repro.analytic import (
    barrier_price,
    bs_price,
    geometric_asian_price,
    geometric_basket_price,
    heston_price,
    kirk_spread_price,
    margrabe_price,
    merton_price,
    rainbow_two_asset_price,
)
from repro.market import MultiAssetGBM, constant_correlation
from repro.lattice import beg_price, binomial_price
from repro.mc import MonteCarloEngine
from repro.payoffs import BasketCall, Call, CallOnMax, Put
from repro.pde import adi_price, fd_price
from repro.rng import Lcg64, Philox4x32, SobolSequence

GOLD = pytest.approx


class TestAnalyticGold:
    def test_black_scholes(self):
        assert bs_price(100, 100, 0.2, 0.05, 1.0) == GOLD(10.450583572185565, rel=1e-12)

    def test_margrabe(self):
        assert margrabe_price(100, 95, 0.2, 0.3, 0.4, 1.0) == GOLD(
            13.77677734933176, rel=1e-12
        )

    def test_stulz(self):
        assert rainbow_two_asset_price(
            100, 95, 100, 0.2, 0.3, 0.4, 0.05, 1.0, kind="call-on-max"
        ) == GOLD(17.149518068454498, rel=1e-9)

    def test_geometric_basket(self):
        model = MultiAssetGBM.equicorrelated(4, 100, 0.25, 0.05, 0.3)
        assert geometric_basket_price(model, [0.25] * 4, 100.0, 1.0) == GOLD(
            8.392466214385573, rel=1e-12
        )

    def test_geometric_asian(self):
        assert geometric_asian_price(100, 100, 0.2, 0.05, 1.0, 12) == GOLD(
            5.940200221633534, rel=1e-12
        )

    def test_barrier(self):
        assert barrier_price(100, 100, 130, 0.2, 0.05, 1.0,
                             kind="up-and-out") == GOLD(3.3328575677087127, rel=1e-9)

    def test_kirk(self):
        assert kirk_spread_price(100, 96, 5.0, 0.25, 0.2, 0.5, 0.05, 1.0) == GOLD(
            8.666410649162275, rel=1e-9
        )

    def test_merton(self):
        assert merton_price(100, 100, 0.2, 0.05, 1.0, jump_intensity=1.0,
                            jump_mean=-0.1, jump_vol=0.15) == GOLD(
            12.761288593628661, rel=1e-9
        )

    def test_heston(self):
        assert heston_price(100, 100, 1.0, v0=0.04, kappa=1.5, theta=0.06,
                            xi=0.5, rho=-0.7, rate=0.03) == GOLD(
            9.720696033414368, rel=1e-7
        )


class TestRngGold:
    def test_lcg_first_word(self):
        assert int(Lcg64(42).random_raw(1)[0]) == 12870963724712631011

    def test_philox_first_word(self):
        assert int(Philox4x32(42).random_raw(1)[0]) == 16969946314717280182

    def test_sobol_point_five(self):
        pts = SobolSequence(3).next(6)
        assert pts[5].tolist() == GOLD([0.8750000001164153, 0.8750000001164153,
                                        0.12500000011641532], rel=1e-12)


class TestEngineGold:
    def test_binomial(self):
        assert binomial_price(100, Call(100.0), 0.2, 0.05, 1.0, 500).price == GOLD(
            10.446585136446535, rel=1e-10
        )

    def test_beg_2d(self):
        model = MultiAssetGBM([100, 95], [0.2, 0.3], 0.05,
                              correlation=constant_correlation(2, 0.4))
        assert beg_price(model, CallOnMax(100.0), 1.0, 100).price == GOLD(
            17.134863843570674, rel=1e-9
        )

    def test_fd_crank_nicolson(self):
        assert fd_price(100, Put(100.0), 0.2, 0.05, 1.0, n_space=200,
                        n_time=100).price == GOLD(5.571087615419043, rel=1e-7)

    def test_adi(self):
        model = MultiAssetGBM([100, 95], [0.2, 0.3], 0.05,
                              correlation=constant_correlation(2, 0.4))
        from repro.payoffs import ExchangeOption

        assert adi_price(model, ExchangeOption(), 1.0, n_space=96,
                         n_time=24).price == GOLD(13.747441259629218, rel=1e-7)

    def test_seeded_mc(self):
        model = MultiAssetGBM.equicorrelated(4, 100, 0.25, 0.05, 0.3)
        r = MonteCarloEngine(50_000, seed=123).price(
            model, BasketCall([0.25] * 4, 100.0), 1.0
        )
        assert r.price == GOLD(9.481457068763815, rel=1e-10)


class TestSimulatedMachineGold:
    def test_mc_parallel_timing(self):
        from repro.engine import ParallelMCPricer
        from repro.workloads import basket_workload

        w = basket_workload(4)
        r = ParallelMCPricer(200_000, seed=1).price(w.model, w.payoff, w.expiry, 8)
        assert r.sim_time == GOLD(0.01765072, rel=1e-6)
        assert r.messages == 7

    def test_lattice_parallel_timing(self):
        from repro.engine import ParallelLatticePricer
        from repro.workloads import rainbow_workload

        w = rainbow_workload()
        r = ParallelLatticePricer(100).price(w.model, w.payoff, w.expiry, 4)
        assert r.messages == 603  # 2·(P−1) halo messages per level + final bcast

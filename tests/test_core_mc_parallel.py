"""Parallel MC pricer: estimator invariance, scaling shape, accounting."""

import pytest

from repro.analytic import bs_price, geometric_basket_price
from repro.engine import ParallelMCPricer, WorkModel
from repro.errors import ValidationError
from repro.mc import Antithetic, ControlVariate, MonteCarloEngine, QMCSobol
from repro.parallel import MachineSpec, ProcessBackend, SerialBackend, ThreadBackend
from repro.payoffs import AsianGeometricCall, BasketCall, Call, GeometricBasketCall
from repro.rng.streams import StreamPartition

N = 64_000


class TestEstimatorInvariance:
    def test_backend_independence(self, model_4d):
        payoff = BasketCall([0.25] * 4, 100.0)
        results = {}
        for backend in (SerialBackend(), ThreadBackend(2), ProcessBackend(2)):
            pricer = ParallelMCPricer(N, seed=3, backend=backend)
            results[backend.name] = pricer.price(model_4d, payoff, 1.0, 4)
            backend.close()
        prices = {r.price for r in results.values()}
        stderrs = {r.stderr for r in results.values()}
        assert len(prices) == 1, "price must not depend on the backend"
        assert len(stderrs) == 1

    def test_p1_with_block_scheme_matches_sequential_engine(self, model_1d):
        # Block splitting at P=1 jumps rank 0 by 0 — the substream IS the
        # master stream, so the parallel estimate equals the sequential one.
        seq = MonteCarloEngine(N, seed=7).price(model_1d, Call(100.0), 1.0)
        par = ParallelMCPricer(N, seed=7, scheme=StreamPartition.BLOCK).price(
            model_1d, Call(100.0), 1.0, 1
        )
        assert par.price == pytest.approx(seq.price, rel=1e-12)

    def test_accuracy_within_ci_at_many_ranks(self, model_4d):
        w = [0.25] * 4
        exact = geometric_basket_price(model_4d, w, 100.0, 1.0)
        r = ParallelMCPricer(N, seed=5).price(
            model_4d, GeometricBasketCall(w, 100.0), 1.0, 16
        )
        assert abs(r.price - exact) < 4 * r.stderr + 1e-3

    def test_qmc_estimate_is_p_invariant(self, model_4d):
        # QMC ranks split one shared point set by blocks ⇒ identical sums.
        payoff = BasketCall([0.25] * 4, 100.0)
        pricer = ParallelMCPricer(32_000, technique=QMCSobol(8), seed=1)
        p1 = pricer.price(model_4d, payoff, 1.0, 1)
        p5 = pricer.price(model_4d, payoff, 1.0, 5)
        assert p5.price == pytest.approx(p1.price, rel=1e-12)

    @pytest.mark.parametrize("scheme", ["keyed", "block", "leapfrog"])
    def test_schemes_agree_within_error(self, model_1d, scheme):
        from repro.rng import Lcg64

        # Leapfrog needs an LCG master; build via scheme-specific pricer.
        pricer = ParallelMCPricer(N, seed=11, scheme=scheme)
        if scheme == "leapfrog":
            # leapfrog requires Lcg64: patch tasks through a master override
            # (task building lives in the pipeline engine since the
            # repro.engine refactor)
            import repro.engine.mc as mce

            orig = mce.Philox4x32
            mce.Philox4x32 = lambda seed, stream=0: Lcg64(seed)
            try:
                r = pricer.price(model_1d, Call(100.0), 1.0, 4)
            finally:
                mce.Philox4x32 = orig
        else:
            r = pricer.price(model_1d, Call(100.0), 1.0, 4)
        exact = bs_price(100, 100, 0.2, 0.05, 1.0)
        assert abs(r.price - exact) < 5 * r.stderr

    def test_variance_reduction_composes_with_parallelism(self, model_4d):
        w = [0.25] * 4
        exact_g = geometric_basket_price(model_4d, w, 100.0, 1.0)
        cv = ControlVariate(GeometricBasketCall(w, 100.0), exact_g)
        plain = ParallelMCPricer(N, seed=9).price(model_4d, BasketCall(w, 100.0),
                                                  1.0, 8)
        ctrl = ParallelMCPricer(N, technique=cv, seed=9).price(
            model_4d, BasketCall(w, 100.0), 1.0, 8
        )
        assert ctrl.stderr < 0.2 * plain.stderr

    def test_antithetic_parallel(self, model_1d):
        r = ParallelMCPricer(N, technique=Antithetic(), seed=13).price(
            model_1d, Call(100.0), 1.0, 8
        )
        assert abs(r.price - bs_price(100, 100, 0.2, 0.05, 1.0)) < 5 * r.stderr

    def test_path_dependent_parallel(self, model_1d):
        from repro.analytic import geometric_asian_price

        r = ParallelMCPricer(N, steps=12, seed=15).price(
            model_1d, AsianGeometricCall(100.0), 1.0, 8
        )
        exact = geometric_asian_price(100, 100, 0.2, 0.05, 1.0, 12)
        assert abs(r.price - exact) < 5 * r.stderr


class TestScalingShape:
    def test_near_linear_speedup(self, model_4d):
        payoff = BasketCall([0.25] * 4, 100.0)
        pricer = ParallelMCPricer(200_000, seed=1)
        results = pricer.sweep(model_4d, payoff, 1.0, [1, 2, 4, 8, 16, 32])
        t1 = results[0].sim_time
        speedups = [t1 / r.sim_time for r in results]
        # MC with an O(1) reduction payload: ≥ 90% efficiency at P=16.
        assert speedups[4] > 16 * 0.90
        assert speedups[5] > 32 * 0.80
        # Monotone in P across this range.
        assert all(b > a for a, b in zip(speedups, speedups[1:]))

    def test_comm_fraction_grows_with_p(self, model_4d):
        payoff = BasketCall([0.25] * 4, 100.0)
        pricer = ParallelMCPricer(100_000, seed=1)
        r2 = pricer.price(model_4d, payoff, 1.0, 2)
        r32 = pricer.price(model_4d, payoff, 1.0, 32)
        assert r32.comm_fraction > r2.comm_fraction

    def test_linear_reduce_slower_than_tree_at_scale(self, model_4d):
        payoff = BasketCall([0.25] * 4, 100.0)
        tree = ParallelMCPricer(50_000, seed=1, reduce_topology="tree").price(
            model_4d, payoff, 1.0, 32
        )
        linear = ParallelMCPricer(50_000, seed=1, reduce_topology="linear").price(
            model_4d, payoff, 1.0, 32
        )
        assert linear.sim_time > tree.sim_time
        # The reduction order differs between topologies, so the prices
        # agree only to floating-point association (as on a real machine).
        assert linear.price == pytest.approx(tree.price, rel=1e-12)

    def test_work_model_scales_time_not_shape(self, model_1d):
        base = ParallelMCPricer(50_000, seed=1).price(model_1d, Call(100.0), 1.0, 4)
        doubled = ParallelMCPricer(
            50_000, seed=1, work=WorkModel().scaled(2.0)
        ).price(model_1d, Call(100.0), 1.0, 4)
        assert doubled.compute_time == pytest.approx(2 * base.compute_time, rel=1e-9)

    def test_slow_network_hurts(self, model_1d):
        fast = MachineSpec(alpha=5e-6, beta=1e-9)
        slow = MachineSpec(alpha=500e-6, beta=1e-7)
        rf = ParallelMCPricer(50_000, seed=1, spec=fast).price(
            model_1d, Call(100.0), 1.0, 16
        )
        rs = ParallelMCPricer(50_000, seed=1, spec=slow).price(
            model_1d, Call(100.0), 1.0, 16
        )
        assert rs.comm_time > rf.comm_time
        assert rs.price == rf.price


class TestValidation:
    def test_more_ranks_than_paths(self, model_1d):
        with pytest.raises(ValidationError):
            ParallelMCPricer(4, seed=1).price(model_1d, Call(100.0), 1.0, 8)

    def test_dim_mismatch(self, model_2d):
        with pytest.raises(ValidationError):
            ParallelMCPricer(1000).price(model_2d, Call(100.0), 1.0, 2)

    def test_qmc_divisibility(self, model_1d):
        with pytest.raises(ValidationError, match="multiple"):
            ParallelMCPricer(1001, technique=QMCSobol(8)).price(
                model_1d, Call(100.0), 1.0, 2
            )

    def test_bad_topology(self):
        with pytest.raises(ValidationError):
            ParallelMCPricer(100, reduce_topology="butterfly")

    def test_meta_records_counts(self, model_1d):
        r = ParallelMCPricer(1000, seed=1).price(model_1d, Call(100.0), 1.0, 3)
        assert sum(r.meta["counts"]) == 1000
        assert r.meta["technique"] == "plain"
        assert r.engine == "mc"

"""Randomized QMC: Brownian bridge correctness, convergence advantage."""

import numpy as np
import pytest

from repro.analytic import bs_price, geometric_asian_price, geometric_basket_price
from repro.errors import ValidationError
from repro.mc import MonteCarloEngine, PlainMC, QMCSobol
from repro.mc.qmc import BrownianBridge
from repro.payoffs import AsianGeometricCall, Call, GeometricBasketCall
from repro.rng import Philox4x32


class TestBrownianBridge:
    def test_increment_covariance_is_brownian(self):
        # Bridge-built increments must be iid N(0, Δt) with zero cross-cov.
        m, n = 8, 60_000
        bb = BrownianBridge(m)
        rng = np.random.default_rng(0)
        z = rng.normal(size=(n, m))
        incr = bb.build(z, horizon=2.0)
        dt = 2.0 / m
        cov = np.cov(incr.T)
        assert np.allclose(np.diag(cov), dt, rtol=0.05)
        off = cov[~np.eye(m, dtype=bool)]
        assert np.max(np.abs(off)) < 0.05 * dt * 5

    def test_terminal_value_driven_by_first_coordinate(self):
        # Coordinate 0 fixes W(T): with all other z zero, W(T) = √T·z₀.
        m = 8
        bb = BrownianBridge(m)
        z = np.zeros((1, m))
        z[0, 0] = 1.5
        incr = bb.build(z, horizon=4.0)
        assert incr.sum() == pytest.approx(1.5 * 2.0, abs=1e-12)

    def test_single_step(self):
        bb = BrownianBridge(1)
        incr = bb.build(np.array([[2.0]]), horizon=1.0)
        assert incr[0, 0] == pytest.approx(2.0)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValidationError):
            BrownianBridge(4).build(np.zeros((3, 5)), 1.0)


class TestQMCAccuracy:
    def test_terminal_payoff_much_tighter_than_mc(self, model_1d):
        exact = bs_price(100, 100, 0.2, 0.05, 1.0)
        n = 32_768
        plain = MonteCarloEngine(n, technique=PlainMC(), seed=1).price(
            model_1d, Call(100.0), 1.0
        )
        qmc = MonteCarloEngine(n, technique=QMCSobol(8), seed=1).price(
            model_1d, Call(100.0), 1.0
        )
        assert abs(qmc.price - exact) < abs(plain.price - exact) + 3 * plain.stderr
        assert qmc.stderr < 0.15 * plain.stderr
        assert abs(qmc.price - exact) < 6 * qmc.stderr + 1e-3

    def test_multiasset_basket(self, model_4d):
        w = [0.25] * 4
        exact = geometric_basket_price(model_4d, w, 100.0, 1.0)
        r = MonteCarloEngine(32_768, technique=QMCSobol(8)).price(
            model_4d, GeometricBasketCall(w, 100.0), 1.0
        )
        assert abs(r.price - exact) < max(6 * r.stderr, 5e-3)

    def test_path_dependent_with_bridge(self, model_1d):
        exact = geometric_asian_price(100, 100, 0.2, 0.05, 1.0, 12)
        r = MonteCarloEngine(16_384, steps=12, technique=QMCSobol(8)).price(
            model_1d, AsianGeometricCall(100.0), 1.0
        )
        assert abs(r.price - exact) < max(6 * r.stderr, 5e-3)

    def test_convergence_rate_faster_than_half(self, model_1d):
        # Fit error ≈ C·N^{-q}: q should comfortably exceed the MC 0.5.
        exact = bs_price(100, 100, 0.2, 0.05, 1.0)
        ns = [1024, 4096, 16384, 65536]
        errs = []
        for n in ns:
            r = MonteCarloEngine(n, technique=QMCSobol(8, seed=5)).price(
                model_1d, Call(100.0), 1.0
            )
            errs.append(max(abs(r.price - exact), 1e-12))
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope < -0.6, f"QMC slope {slope} not better than MC's -0.5"


class TestQMCContracts:
    def test_deterministic(self, model_1d):
        a = MonteCarloEngine(8192, technique=QMCSobol(8, seed=3)).price(
            model_1d, Call(100.0), 1.0
        )
        b = MonteCarloEngine(8192, technique=QMCSobol(8, seed=3)).price(
            model_1d, Call(100.0), 1.0
        )
        assert a.price == b.price

    def test_skip_partitioning_is_exact(self, model_1d):
        # partial(skip=k) must tile the same point set as one big partial.
        tech = QMCSobol(4, seed=9)
        whole = tech.partial(model_1d, Call(100.0), 1.0, 4096, Philox4x32(0))
        parts = [
            tech.partial(model_1d, Call(100.0), 1.0, 1024, Philox4x32(0),
                         skip=i * 256)
            for i in range(4)
        ]
        merged = tech.combine(parts)
        pw, _, nw = tech.finalize(whole)
        pm, _, nm = tech.finalize(merged)
        assert nw == nm
        assert pm == pytest.approx(pw, rel=1e-12)

    def test_replicate_divisibility_enforced(self, model_1d):
        with pytest.raises(ValidationError, match="multiple"):
            MonteCarloEngine(1001, technique=QMCSobol(8)).price(
                model_1d, Call(100.0), 1.0
            )

    def test_needs_two_replicates(self):
        with pytest.raises(ValidationError):
            QMCSobol(1)

    def test_stderr_honest(self, model_4d):
        # The replicate-spread error bar should cover the true error most
        # of the time; check a single configuration at generous z.
        w = [0.25] * 4
        exact = geometric_basket_price(model_4d, w, 100.0, 1.0)
        r = MonteCarloEngine(16_384, technique=QMCSobol(16, seed=11)).price(
            model_4d, GeometricBasketCall(w, 100.0), 1.0
        )
        assert abs(r.price - exact) < 8 * r.stderr + 1e-4

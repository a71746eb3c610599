"""Merton jump diffusion: Poisson sampler, martingale property, series."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analytic import bs_price, merton_price
from repro.errors import ValidationError
from repro.market import MertonJumpDiffusion, sample_poisson
from repro.mc import DirectSampling, MonteCarloEngine
from repro.payoffs import AsianGeometricCall, Call, Put
from repro.rng import Philox4x32


class TestPoissonSampler:
    @pytest.mark.parametrize("mean", [0.1, 1.0, 5.0, 20.0])
    def test_moments(self, mean):
        x = sample_poisson(Philox4x32(int(mean * 10)), 200_000, mean)
        assert x.min() >= 0
        assert x.mean() == pytest.approx(mean, rel=0.03)
        assert x.var() == pytest.approx(mean, rel=0.05)

    def test_zero_mean(self):
        assert np.all(sample_poisson(Philox4x32(0), 100, 0.0) == 0)

    def test_deterministic(self):
        a = sample_poisson(Philox4x32(7), 1000, 2.0)
        b = sample_poisson(Philox4x32(7), 1000, 2.0)
        assert np.array_equal(a, b)

    def test_huge_mean_rejected(self):
        with pytest.raises(ValidationError):
            sample_poisson(Philox4x32(0), 10, 500.0)

    def test_distribution_matches_pmf(self):
        mean = 2.0
        x = sample_poisson(Philox4x32(3), 300_000, mean)
        for k in range(5):
            pmf = math.exp(-mean) * mean**k / math.factorial(k)
            assert (x == k).mean() == pytest.approx(pmf, abs=0.005)


class TestModel:
    def _model(self, lam=1.0):
        return MertonJumpDiffusion(100, 0.2, 0.05, jump_intensity=lam,
                                   jump_mean=-0.1, jump_vol=0.15)

    def test_kappa(self):
        m = self._model()
        assert m.kappa == pytest.approx(math.exp(-0.1 + 0.5 * 0.15**2) - 1.0)

    def test_martingale_property(self):
        m = self._model()
        st_arr = m.sample_terminal(Philox4x32(1), 400_000, 1.0)
        assert st_arr.mean() == pytest.approx(m.terminal_mean(1.0), rel=0.005)

    def test_zero_intensity_reduces_to_gbm(self):
        m = MertonJumpDiffusion(100, 0.2, 0.05, jump_intensity=0.0,
                                jump_mean=0.0, jump_vol=0.0)
        r = MonteCarloEngine(200_000, technique=DirectSampling(), seed=2).price(
            m, Call(100.0), 1.0
        )
        assert r.within(bs_price(100, 100, 0.2, 0.05, 1.0), z=4)

    def test_jumps_fatten_tails(self):
        gbm_like = MertonJumpDiffusion(100, 0.2, 0.05, 0.0, 0.0, 0.0)
        jumpy = self._model(lam=2.0)
        a = np.log(gbm_like.sample_terminal(Philox4x32(3), 200_000, 1.0))
        b = np.log(jumpy.sample_terminal(Philox4x32(3), 200_000, 1.0))
        kurt_a = float(np.mean((a - a.mean()) ** 4) / a.var() ** 2)
        kurt_b = float(np.mean((b - b.mean()) ** 4) / b.var() ** 2)
        assert kurt_b > kurt_a + 0.3

    def test_validation(self):
        with pytest.raises(ValidationError):
            MertonJumpDiffusion(0, 0.2, 0.05, 1.0, 0.0, 0.1)
        with pytest.raises(ValidationError):
            MertonJumpDiffusion(100, 0.2, 0.05, -1.0, 0.0, 0.1)

    def test_shape(self):
        out = self._model().sample_terminal(Philox4x32(0), 50, 1.0)
        assert out.shape == (50, 1)
        assert np.all(out > 0)


class TestMertonSeries:
    def test_zero_intensity_is_black_scholes(self):
        v = merton_price(100, 100, 0.2, 0.05, 1.0, jump_intensity=0.0,
                         jump_mean=0.0, jump_vol=0.0)
        assert v == pytest.approx(bs_price(100, 100, 0.2, 0.05, 1.0), abs=1e-12)

    def test_jumps_raise_option_value(self):
        plain = bs_price(100, 100, 0.2, 0.05, 1.0)
        jumpy = merton_price(100, 100, 0.2, 0.05, 1.0, jump_intensity=1.0,
                             jump_mean=-0.1, jump_vol=0.15)
        assert jumpy > plain  # extra variance at fixed forward

    @given(st.floats(0.1, 3.0), st.floats(-0.3, 0.2), st.floats(0.01, 0.4))
    def test_put_call_parity(self, lam, mu_j, sig_j):
        kwargs = dict(jump_intensity=lam, jump_mean=mu_j, jump_vol=sig_j)
        c = merton_price(100, 95, 0.2, 0.05, 1.0, **kwargs)
        p = merton_price(100, 95, 0.2, 0.05, 1.0, option="put", **kwargs)
        # Forward unchanged by jumps (martingale compensation).
        assert c - p == pytest.approx(100 - 95 * math.exp(-0.05), abs=1e-8)

    def test_mc_matches_series(self):
        m = MertonJumpDiffusion(100, 0.2, 0.05, 1.0, -0.1, 0.15)
        r = MonteCarloEngine(300_000, technique=DirectSampling(), seed=5).price(
            m, Call(100.0), 1.0
        )
        exact = merton_price(100, 100, 0.2, 0.05, 1.0, jump_intensity=1.0,
                             jump_mean=-0.1, jump_vol=0.15)
        assert r.within(exact, z=4)

    def test_mc_matches_series_put(self):
        m = MertonJumpDiffusion(100, 0.2, 0.05, 0.5, 0.05, 0.2)
        r = MonteCarloEngine(300_000, technique=DirectSampling(), seed=6).price(
            m, Put(110.0), 1.0
        )
        exact = merton_price(100, 110, 0.2, 0.05, 1.0, option="put",
                             jump_intensity=0.5, jump_mean=0.05, jump_vol=0.2)
        assert r.within(exact, z=4)


class TestDirectSampling:
    def test_requires_sampler_protocol(self):
        class NoSampler:
            rate = 0.05
            dim = 1

        with pytest.raises(ValidationError, match="sample_terminal"):
            DirectSampling().partial(NoSampler(), Call(100.0), 1.0, 10,
                                     Philox4x32(0))

    def test_rejects_path_dependent(self):
        m = MertonJumpDiffusion(100, 0.2, 0.05, 1.0, -0.1, 0.15)
        with pytest.raises(ValidationError):
            DirectSampling().partial(m, AsianGeometricCall(100.0), 1.0, 10,
                                     Philox4x32(0))

    def test_parallel_composes(self):
        # DirectSampling through the parallel pricer: backend-invariant.
        from repro.engine import ParallelMCPricer

        m = MertonJumpDiffusion(100, 0.2, 0.05, 1.0, -0.1, 0.15)
        pricer = ParallelMCPricer(40_000, technique=DirectSampling(), seed=3)
        r1 = pricer.price(m, Call(100.0), 1.0, 1)
        r4 = pricer.price(m, Call(100.0), 1.0, 4)
        exact = merton_price(100, 100, 0.2, 0.05, 1.0, jump_intensity=1.0,
                             jump_mean=-0.1, jump_vol=0.15)
        assert abs(r1.price - exact) < 5 * r1.stderr
        assert abs(r4.price - exact) < 5 * r4.stderr

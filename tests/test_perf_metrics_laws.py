"""Speedup/efficiency metrics and scalability laws."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.perf import (
    ScalingSeries,
    amdahl_speedup,
    efficiency,
    fit_serial_fraction,
    gustafson_speedup,
    karp_flatt,
    speedup,
)

fractions = st.floats(min_value=0.0, max_value=1.0)
procs = st.integers(1, 1024)


class TestBasicMetrics:
    def test_speedup_definition(self):
        assert speedup(10.0, 2.0) == pytest.approx(5.0)

    def test_efficiency_definition(self):
        assert efficiency(10.0, 2.0, 5) == pytest.approx(1.0)

    def test_positive_inputs_required(self):
        with pytest.raises(ValidationError):
            speedup(0.0, 1.0)
        with pytest.raises(ValidationError):
            efficiency(1.0, 1.0, 0)


class TestAmdahl:
    @given(procs, fractions)
    def test_bounded_by_serial_fraction(self, p, f):
        s = amdahl_speedup(p, f)
        assert 1.0 - 1e-12 <= s <= p + 1e-9
        if f > 0:
            assert s <= 1.0 / f + 1e-9

    def test_classic_example(self):
        # 90% parallel, 4-fold section speedup analogue: P=∞ bound is 10.
        assert amdahl_speedup(1024, 0.1) == pytest.approx(10.0, rel=0.02)

    def test_fully_parallel_is_linear(self):
        assert amdahl_speedup(64, 0.0) == pytest.approx(64.0)

    def test_fully_serial_is_one(self):
        assert amdahl_speedup(64, 1.0) == pytest.approx(1.0)


class TestGustafson:
    @given(procs, fractions)
    def test_scaled_speedup_band(self, p, f):
        s = gustafson_speedup(p, f)
        assert 1.0 - 1e-9 <= s <= p + 1e-9

    def test_linear_in_p_for_fixed_fraction(self):
        s8 = gustafson_speedup(8, 0.2)
        s16 = gustafson_speedup(16, 0.2)
        assert s16 - s8 == pytest.approx(0.8 * 8)

    @given(st.integers(2, 512), st.floats(0.01, 0.99))
    def test_gustafson_exceeds_amdahl(self, p, f):
        # Weak scaling always looks better than strong scaling.
        assert gustafson_speedup(p, f) >= amdahl_speedup(p, f) - 1e-9


class TestKarpFlatt:
    @given(st.integers(2, 512), st.floats(0.001, 0.999))
    def test_recovers_amdahl_fraction_exactly(self, p, f):
        s = amdahl_speedup(p, f)
        assert karp_flatt(s, p) == pytest.approx(f, rel=1e-9, abs=1e-12)

    def test_perfect_speedup_gives_zero(self):
        assert karp_flatt(8.0, 8) == pytest.approx(0.0, abs=1e-12)

    def test_requires_p_at_least_two(self):
        with pytest.raises(ValidationError):
            karp_flatt(1.0, 1)


class TestFitSerialFraction:
    @given(st.floats(0.0, 0.9))
    def test_recovers_known_fraction(self, f):
        ps = [1, 2, 4, 8, 16, 32]
        t1 = 7.3
        times = [t1 * (f + (1 - f) / p) for p in ps]
        fhat, rms = fit_serial_fraction(ps, times)
        assert fhat == pytest.approx(f, abs=1e-9)
        assert rms < 1e-9

    def test_noisy_fit_close(self):
        rng = np.random.default_rng(0)
        ps = [1, 2, 4, 8, 16]
        f = 0.07
        times = [(f + (1 - f) / p) * (1 + rng.normal(0, 0.01)) for p in ps]
        fhat, _ = fit_serial_fraction(ps, times)
        assert fhat == pytest.approx(f, abs=0.03)

    def test_requires_p1_first(self):
        with pytest.raises(ValidationError):
            fit_serial_fraction([2, 4], [1.0, 0.5])


class TestScalingSeries:
    def test_derived_columns(self):
        s = ScalingSeries(ps=(1, 2, 4), times=(1.0, 0.5, 0.25))
        assert np.allclose(s.speedups, [1, 2, 4])
        assert np.allclose(s.efficiencies, [1, 1, 1])

    def test_explicit_t1_baseline(self):
        # Parallel algorithm slower at P=1 than the best serial algorithm.
        s = ScalingSeries(ps=(2, 4), times=(0.6, 0.3), t1=1.0)
        assert np.allclose(s.speedups, [1 / 0.6, 1 / 0.3])

    def test_must_start_at_one_without_t1(self):
        with pytest.raises(ValidationError):
            ScalingSeries(ps=(2, 4), times=(1.0, 0.5))

    def test_table_renders(self):
        s = ScalingSeries(ps=(1, 2), times=(1.0, 0.6), label="demo")
        out = s.table().render()
        assert "demo" in out and "efficiency" in out

    def test_from_results(self, model_1d):
        from repro.engine import ParallelMCPricer
        from repro.payoffs import Call

        pricer = ParallelMCPricer(10_000, seed=1)
        results = pricer.sweep(model_1d, Call(100.0), 1.0, [1, 2, 4])
        s = ScalingSeries.from_results(results, label="mc")
        assert s.ps == (1, 2, 4)
        assert len(s.extras["comm_times"]) == 3

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            ScalingSeries(ps=(1, 2), times=(1.0,))

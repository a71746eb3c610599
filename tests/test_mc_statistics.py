"""Mergeable statistics: the parallel-reduction payload must merge exactly."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ValidationError
from repro.mc import CrossStats, SampleStats, StrataStats

values = hnp.arrays(np.float64, st.integers(1, 200),
                    elements=st.floats(-100.0, 100.0))


class TestSampleStats:
    def test_mean_and_variance_match_numpy(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        s = SampleStats.from_values(v)
        assert s.mean == pytest.approx(v.mean())
        assert s.variance == pytest.approx(v.var(ddof=1))
        assert s.stderr == pytest.approx(v.std(ddof=1) / 2.0)

    @given(values, values)
    def test_merge_equals_concatenation(self, a, b):
        merged = SampleStats.from_values(a).merge(SampleStats.from_values(b))
        whole = SampleStats.from_values(np.concatenate([a, b]))
        assert merged.n == whole.n
        assert merged.mean == pytest.approx(whole.mean, rel=1e-9, abs=1e-9)
        assert merged.variance == pytest.approx(whole.variance, rel=1e-6, abs=1e-9)

    @given(values)
    def test_merge_associative(self, v):
        thirds = np.array_split(v, 3)
        parts = [SampleStats.from_values(t) for t in thirds]
        left = parts[0].merge(parts[1]).merge(parts[2])
        right = parts[0].merge(parts[1].merge(parts[2]))
        assert left.n == right.n
        assert left.total == pytest.approx(right.total, rel=1e-12, abs=1e-12)

    def test_identity_element(self):
        s = SampleStats.from_values(np.array([5.0, 7.0]))
        assert SampleStats().merge(s) == s
        assert s.merge(SampleStats()) == s

    def test_empty_mean_raises(self):
        with pytest.raises(ValidationError):
            _ = SampleStats().mean

    def test_single_sample(self):
        s = SampleStats.from_values(np.array([3.0]))
        assert s.variance == 0.0
        assert s.mean == 3.0

    def test_confidence_interval_contains_mean(self):
        s = SampleStats.from_values(np.random.default_rng(0).normal(size=500))
        lo, hi = s.confidence_interval()
        assert lo < s.mean < hi

    def test_constant_sample_has_zero_variance(self):
        s = SampleStats.from_values(np.full(100, 2.5))
        assert s.variance == pytest.approx(0.0, abs=1e-12)


class TestCrossStats:
    def _xy(self, seed=0, n=400):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        y = 2.0 * x + rng.normal(size=n) * 0.5
        return y, x

    def test_beta_recovers_regression_slope(self):
        y, x = self._xy()
        c = CrossStats.from_values(y, x)
        expected = np.cov(y, x, ddof=1)[0, 1] / np.var(x, ddof=1)
        assert c.beta == pytest.approx(expected, rel=1e-9)

    def test_adjusted_reduces_variance(self):
        y, x = self._xy()
        c = CrossStats.from_values(y, x)
        _, se_adj = c.adjusted(control_mean=0.0)
        se_plain = SampleStats.from_values(y).stderr
        assert se_adj < 0.5 * se_plain

    def test_adjusted_mean_with_perfect_control(self):
        # Y = X exactly: the adjusted estimator must hit the control mean
        # with zero residual variance.
        x = np.random.default_rng(1).normal(size=300)
        c = CrossStats.from_values(x, x)
        mean, se = c.adjusted(control_mean=0.0)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-9)

    @given(values)
    def test_merge_equals_concatenation(self, y):
        x = np.cos(y)  # deterministic paired control
        half = y.size // 2
        a = CrossStats.from_values(y[:half], x[:half])
        b = CrossStats.from_values(y[half:], x[half:])
        merged = a.merge(b)
        whole = CrossStats.from_values(y, x)
        assert merged.n == whole.n
        assert merged.sxy == pytest.approx(whole.sxy, rel=1e-9, abs=1e-9)
        if whole.n >= 2:
            assert merged.beta == pytest.approx(whole.beta, rel=1e-9, abs=1e-9)

    def test_degenerate_control_gives_zero_beta(self):
        c = CrossStats.from_values(np.array([1.0, 2.0, 3.0]), np.full(3, 7.0))
        assert c.beta == 0.0

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValidationError):
            CrossStats.from_values(np.zeros(3), np.zeros(4))


class TestStrataStats:
    def test_stratified_mean_is_average_of_stratum_means(self):
        s = StrataStats.empty(2)
        s = s.add_stratum_values(0, np.array([1.0, 1.0]))
        s = s.add_stratum_values(1, np.array([3.0, 5.0]))
        assert s.mean == pytest.approx((1.0 + 4.0) / 2.0)
        assert s.n == 4

    def test_merge_stratumwise(self):
        a = StrataStats.empty(2).add_stratum_values(0, np.array([1.0]))
        b = StrataStats.empty(2).add_stratum_values(0, np.array([3.0]))
        b = b.add_stratum_values(1, np.array([10.0, 10.0]))
        m = a.merge(b)
        assert m.strata[0].n == 2
        assert m.strata[0].mean == pytest.approx(2.0)
        assert m.strata[1].n == 2

    def test_merge_requires_same_layout(self):
        with pytest.raises(ValidationError):
            StrataStats.empty(2).merge(StrataStats.empty(3))

    def test_empty_stratum_blocks_mean(self):
        s = StrataStats.empty(2).add_stratum_values(0, np.array([1.0]))
        with pytest.raises(ValidationError):
            _ = s.mean
        assert s.stderr == math.inf

    def test_stratification_never_hurts_balanced_case(self):
        # With equal-probability strata and proportional allocation the
        # stratified variance is ≤ the plain variance of the pooled sample.
        rng = np.random.default_rng(3)
        lcount, per = 8, 500
        s = StrataStats.empty(lcount)
        pooled = []
        for l_idx in range(lcount):
            u = (l_idx + rng.random(per)) / lcount
            vals = np.sin(3 * u) + u  # smooth monotone-ish integrand
            s = s.add_stratum_values(l_idx, vals)
            pooled.append(vals)
        plain = SampleStats.from_values(np.concatenate(pooled))
        assert s.stderr <= plain.stderr * 1.05

    def test_invalid_stratum_index(self):
        with pytest.raises(ValidationError):
            StrataStats.empty(2).add_stratum_values(2, np.array([1.0]))

    def test_empty_layout_rejected(self):
        with pytest.raises(ValidationError):
            StrataStats.empty(0)

"""Sobol sequences: net structure, skipping, scrambling, QMC advantage."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.rng import SOBOL_MAX_DIM, SobolSequence


class TestStructure:
    def test_first_dimension_is_van_der_corput(self):
        pts = SobolSequence(1).next(8)[:, 0]
        # Van der Corput base 2 (offset by the half-ulp centering).
        expected = np.array([0.0, 0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125])
        assert np.allclose(pts, expected, atol=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 5, 13, SOBOL_MAX_DIM])
    def test_perfect_1d_stratification(self, dim):
        # Any 2^k-point prefix puts exactly one point in each dyadic bin,
        # in every coordinate — the defining (t,m,s)-net property at k bits.
        n = 256
        pts = SobolSequence(dim).next(n)
        for j in range(dim):
            hist, _ = np.histogram(pts[:, j], bins=16, range=(0.0, 1.0))
            assert np.all(hist == n // 16), f"dim {j} not stratified"

    def test_2d_pairwise_stratification(self):
        # 2-D projections of a Sobol net fill a 4x4 grid with 16 points each.
        pts = SobolSequence(2).next(256)
        hist, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=4,
                                    range=[[0, 1], [0, 1]])
        assert np.all(hist == 16)

    def test_points_in_open_interval(self):
        pts = SobolSequence(8).next(1024)
        assert pts.min() > 0.0 and pts.max() < 1.0


class TestSkipAndSpawn:
    @given(st.integers(0, 500), st.integers(1, 200))
    def test_skip_matches_offset_generation(self, skip, n):
        ref = SobolSequence(3).next(skip + n)
        s = SobolSequence(3, skip=skip)
        assert np.allclose(s.next(n), ref[skip:])

    def test_skip_method(self):
        s = SobolSequence(2)
        s.skip(10)
        assert s.position == 10
        ref = SobolSequence(2).next(15)
        assert np.allclose(s.next(5), ref[10:])


class TestScrambling:
    def test_scramble_changes_points_deterministically(self):
        a = SobolSequence(3, scramble=True, seed=1).next(16)
        b = SobolSequence(3, scramble=True, seed=1).next(16)
        c = SobolSequence(3, scramble=True, seed=2).next(16)
        assert np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_digital_shift_preserves_stratification(self):
        pts = SobolSequence(3, scramble=True, seed=9).next(256)
        for j in range(3):
            hist, _ = np.histogram(pts[:, j], bins=16, range=(0.0, 1.0))
            assert np.all(hist == 16)


class TestQMCAdvantage:
    def test_sobol_integrates_smooth_function_better_than_mc(self):
        # ∫ over [0,1]^5 of Π(2·u_i) equals 1; Sobol should beat MC by a lot.
        from repro.rng import Philox4x32

        n = 4096
        dim = 5
        sob = SobolSequence(dim, skip=1).next(n)
        qmc_est = np.prod(2.0 * sob, axis=1).mean()
        mc = Philox4x32(3).uniforms(n * dim).reshape(n, dim)
        mc_est = np.prod(2.0 * mc, axis=1).mean()
        assert abs(qmc_est - 1.0) < abs(mc_est - 1.0)
        assert abs(qmc_est - 1.0) < 5e-3


class TestValidation:
    def test_dimension_bounds(self):
        with pytest.raises(ValidationError):
            SobolSequence(0)
        with pytest.raises(ValidationError):
            SobolSequence(SOBOL_MAX_DIM + 1)

    def test_negative_skip_rejected(self):
        with pytest.raises(ValidationError):
            SobolSequence(1, skip=-1)
        s = SobolSequence(1)
        with pytest.raises(ValidationError):
            s.skip(-1)

    def test_negative_n_rejected(self):
        with pytest.raises(ValidationError):
            SobolSequence(1).next(-1)

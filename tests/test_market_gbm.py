"""MultiAssetGBM: construction, exact moments, sampling laws."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.market import MultiAssetGBM
from repro.rng import Philox4x32


class TestConstruction:
    def test_scalar_broadcast(self):
        m = MultiAssetGBM([100, 90, 80], 0.2, 0.05)
        assert m.dim == 3
        assert np.allclose(m.vols, 0.2)
        assert np.allclose(m.correlation, np.eye(3))

    def test_single_factory(self):
        m = MultiAssetGBM.single(100, 0.2, 0.05)
        assert m.dim == 1
        assert m.dividends[0] == 0.0

    def test_equicorrelated_factory(self):
        m = MultiAssetGBM.equicorrelated(5, 100, 0.3, 0.02, 0.25)
        assert m.dim == 5
        assert m.correlation[0, 4] == pytest.approx(0.25)

    def test_rejects_nonpositive_spot(self):
        with pytest.raises(ValidationError):
            MultiAssetGBM([100, -1], 0.2, 0.05)

    def test_rejects_nonpositive_vol(self):
        with pytest.raises(ValidationError):
            MultiAssetGBM(100, 0.0, 0.05)

    def test_rejects_wrong_correlation_shape(self):
        with pytest.raises(ValidationError):
            MultiAssetGBM([100, 90], 0.2, 0.05, correlation=np.eye(3))

    def test_immutable(self):
        m = MultiAssetGBM.single(100, 0.2, 0.05)
        with pytest.raises(Exception):
            m.rate = 0.1

    def test_with_spots_and_vols_copies(self):
        m = MultiAssetGBM.single(100, 0.2, 0.05)
        m2 = m.with_spots([110.0])
        m3 = m.with_vols([0.3])
        assert m.spots[0] == 100.0 and m2.spots[0] == 110.0
        assert m.vols[0] == 0.2 and m3.vols[0] == 0.3

    def test_drifts(self):
        m = MultiAssetGBM([100], [0.2], 0.05, [0.01])
        assert m.drifts[0] == pytest.approx(0.05 - 0.01 - 0.02)


class TestMoments:
    def test_terminal_mean_forward(self, model_1d):
        assert model_1d.terminal_mean(2.0)[0] == pytest.approx(100.0 * np.exp(0.1))

    def test_log_moments(self, model_2d):
        mean, cov = model_2d.terminal_log_moments(1.0)
        assert mean.shape == (2,)
        assert cov.shape == (2, 2)
        assert cov[0, 1] == pytest.approx(0.4 * 0.2 * 0.3)

    def test_martingale_property_sampled(self, model_4d):
        # E[e^{-rT} S_i(T)] = S_i(0) e^{-q_i T}: the discounted asset is a
        # martingale under the risk-neutral measure.
        gen = Philox4x32(31)
        s_term = model_4d.sample_terminal(gen, 400_000, 1.0)
        disc = np.exp(-model_4d.rate * 1.0)
        est = disc * s_term.mean(axis=0)
        assert np.allclose(est, model_4d.spots, rtol=0.01)

    def test_sampled_log_covariance(self, model_2d):
        gen = Philox4x32(33)
        s_term = model_2d.sample_terminal(gen, 300_000, 1.0)
        logs = np.log(s_term)
        _, cov_exact = model_2d.terminal_log_moments(1.0)
        cov_est = np.cov(logs.T)
        assert np.allclose(cov_est, cov_exact, atol=5e-4)


class TestPaths:
    def test_shapes(self, model_2d):
        paths = model_2d.sample_paths(Philox4x32(1), 50, 1.0, 12)
        assert paths.shape == (50, 13, 2)
        assert np.allclose(paths[:, 0, :], model_2d.spots)

    def test_paths_positive(self, model_4d):
        paths = model_4d.sample_paths(Philox4x32(2), 200, 2.0, 8)
        assert np.all(paths > 0)

    def test_terminal_slice_distribution_matches_direct(self, model_1d):
        # The path terminal and the one-shot terminal sampler share the
        # exact lognormal law (different draws, same distribution).
        n = 200_000
        t_direct = model_1d.sample_terminal(Philox4x32(3), n, 1.0)[:, 0]
        t_path = model_1d.sample_paths(Philox4x32(4), n // 10, 1.0, 4)[:, -1, 0]
        assert abs(np.log(t_direct).mean() - np.log(t_path).mean()) < 0.01
        assert abs(np.log(t_direct).std() - np.log(t_path).std()) < 0.01

    def test_correlation_of_increments(self, model_2d):
        paths = model_2d.sample_paths(Philox4x32(5), 100_000, 1.0, 2)
        r1 = np.diff(np.log(paths[:, :, 0]), axis=1)
        r2 = np.diff(np.log(paths[:, :, 1]), axis=1)
        c = np.corrcoef(r1.ravel(), r2.ravel())[0, 1]
        assert abs(c - 0.4) < 0.02

    def test_normals_shape_validation(self, model_2d):
        with pytest.raises(ValidationError):
            model_2d.paths_from_normals(np.zeros((10, 3, 1)), 1.0, 3)

    def test_correlate_shape_validation(self, model_2d):
        with pytest.raises(ValidationError):
            model_2d.correlate(np.zeros((10, 3)))


class TestDeterminism:
    @given(st.integers(0, 1000))
    def test_same_seed_same_prices(self, seed):
        m = MultiAssetGBM.equicorrelated(3, 100, 0.2, 0.05, 0.2)
        a = m.sample_terminal(Philox4x32(seed), 100, 1.0)
        b = m.sample_terminal(Philox4x32(seed), 100, 1.0)
        assert np.array_equal(a, b)


class TestCorrelationValidatedOnce:
    """The constructor validates its correlation matrix once and factors
    the validated matrix; the factor's bytes and every rejection message
    are what they were when it validated twice (digests and messages
    recorded at 86f54e6)."""

    @staticmethod
    def _digest(models):
        import hashlib

        h = hashlib.sha256()
        for m in models:
            h.update(m._chol.tobytes())
        return h.hexdigest()[:16]

    @staticmethod
    def _markets():
        from repro.workloads.generators import random_portfolio, strike_strip

        strip = strike_strip(16, dim=2)[0].model
        return strip, [w.model for w in random_portfolio(6, dim=3)]

    def test_pinned_book_models(self):
        strip, portfolio = self._markets()
        assert self._digest([strip] + portfolio) == "5ccef3e6f86d50e9"

    @pytest.mark.parametrize("seed,digest", [
        (3, "64d71ba5c4c60bf3"), (7, "6e917a96727320bb"),
        (58, "ca40402f7fd108e8")])
    def test_every_stress_shock(self, seed, digest):
        from repro.market import cholesky_factor
        from repro.risk.scenarios import stress_scenarios

        strip, _ = self._markets()
        shocked = [s.apply(strip) for s in stress_scenarios(2, 64, seed=seed)]
        assert self._digest(shocked) == digest
        assert all(m._chol.tobytes()
                   == cholesky_factor(m.correlation).tobytes()
                   for m in shocked)

    def test_repaired_shocks(self):
        from repro.risk.scenarios import Scenario

        strip, portfolio = self._markets()
        # Clipped to the all-ones matrix: PSD but singular, the jitter retry.
        up = Scenario(label="corr+0.9", corr_shift=0.9, axis="corr")
        assert self._digest([up.apply(strip)]) == "555e83d559f9358a"
        # Leaves the PSD cone: repair_correlation projects it back.
        down = Scenario(label="corr-0.9", corr_shift=-0.9, axis="corr")
        assert self._digest([down.apply(m) for m in portfolio]) == (
            "87c0c4a5e59b6000")

    @pytest.mark.parametrize("matrix,dim,message", [
        (np.ones((2, 3)), 2,
         "correlation must be a square matrix, got shape (2, 3)"),
        ([[1.0, np.nan], [np.nan, 1.0]], 2,
         "correlation contains non-finite entries"),
        ([[1.0, 0.2], [0.3, 1.0]], 2, "correlation must be symmetric"),
        ([[1.0, 0.2], [0.2, 0.9]], 2, "correlation must have a unit diagonal"),
        ([[1.0, 1.5], [1.5, 1.0]], 2,
         "correlation entries must lie in [-1, 1]"),
        ([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]], 3,
         "correlation is not positive semi-definite (min eigenvalue "
         "-8.000e-01); repair it with repro.utils.nearest_psd first"),
        (np.eye(3), 2,
         "correlation must be (2, 2) to match 2 assets, got (3, 3)"),
    ], ids=["non-square", "non-finite", "asymmetric", "diagonal", "range",
            "indefinite", "shape"])
    def test_invalid_matrix_messages(self, matrix, dim, message):
        with pytest.raises(ValidationError) as err:
            MultiAssetGBM([100.0] * dim, 0.2, 0.05, correlation=matrix)
        assert str(err.value) == message

    def test_public_factor_still_validates(self):
        from repro.market import cholesky_factor

        with pytest.raises(ValidationError, match="symmetric"):
            cholesky_factor(np.array([[1.0, 0.2], [0.3, 1.0]]))

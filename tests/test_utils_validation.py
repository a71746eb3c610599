"""Argument-validation helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.utils.validation import (
    check_1d_lengths,
    check_correlation_matrix,
    check_in_range,
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 1.5) == 1.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError, match="x"):
            check_positive("x", bad)

    def test_coerces_to_float(self):
        out = check_positive("x", np.float32(2.0))
        assert isinstance(out, float)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0.0) == 0.0

    @pytest.mark.parametrize("bad", [-1e-9, float("nan")])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            check_non_negative("x", bad)


class TestCheckProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts(self, ok):
        assert check_probability("p", ok) == ok

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan")])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            check_probability("p", bad)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range("x", 1.0, 0.0, 1.0) == 1.0

    def test_exclusive_bounds_reject_endpoint(self):
        with pytest.raises(ValidationError):
            check_in_range("x", 1.0, 0.0, 1.0, inclusive=False)

    def test_error_message_names_parameter(self):
        with pytest.raises(ValidationError, match="rho"):
            check_in_range("rho", 2.0, -1.0, 1.0)


class TestCheckPositiveInt:
    def test_accepts_numpy_integer(self):
        assert check_positive_int("n", np.int64(5)) == 5

    @pytest.mark.parametrize("bad", [0, -3, 1.5, True, "7"])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            check_positive_int("n", bad)


class TestCorrelationMatrix:
    def test_accepts_identity(self):
        out = check_correlation_matrix("c", np.eye(3))
        assert out.shape == (3, 3)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError, match="square"):
            check_correlation_matrix("c", np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            check_correlation_matrix("c", m)

    def test_rejects_bad_diagonal(self):
        m = np.array([[2.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="diagonal"):
            check_correlation_matrix("c", m)

    def test_rejects_out_of_range_entries(self):
        m = np.array([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(ValidationError):
            check_correlation_matrix("c", m)

    def test_rejects_indefinite(self):
        # rho_12 = rho_13 = 0.9, rho_23 = -0.9 is not PSD.
        m = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        with pytest.raises(ValidationError, match="positive semi-definite"):
            check_correlation_matrix("c", m)

    @given(st.floats(min_value=-0.49, max_value=0.99))
    def test_equicorrelation_3d_psd_band(self, rho):
        m = np.full((3, 3), rho)
        np.fill_diagonal(m, 1.0)
        out = check_correlation_matrix("c", m)
        assert np.allclose(np.diag(out), 1.0)


class TestCheck1DLengths:
    def test_broadcasts_scalars(self):
        out = check_1d_lengths(3, vols=0.2)
        assert out["vols"].shape == (3,)
        assert np.allclose(out["vols"], 0.2)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError, match="vols"):
            check_1d_lengths(3, vols=[0.1, 0.2])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            check_1d_lengths(2, spots=[1.0, float("nan")])

    def test_multiple_arrays(self):
        out = check_1d_lengths(2, a=[1, 2], b=3.0)
        assert set(out) == {"a", "b"}

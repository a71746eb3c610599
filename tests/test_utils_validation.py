"""Argument-validation helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
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


def _allclose_reference(name, matrix):
    """``check_correlation_matrix`` as it was, on ``np.allclose``."""
    atol = 1e-8
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    if not np.allclose(m, m.T, atol=atol):
        raise ValidationError(f"{name} must be symmetric")
    if not np.allclose(np.diag(m), 1.0, atol=atol):
        raise ValidationError(f"{name} must have a unit diagonal")
    if np.any(np.abs(m) > 1.0 + atol):
        raise ValidationError(f"{name} entries must lie in [-1, 1]")
    eigmin = float(np.linalg.eigvalsh(m).min())
    if eigmin < -atol:
        raise ValidationError(
            f"{name} is not positive semi-definite (min eigenvalue {eigmin:.3e}); "
            "repair it with repro.utils.nearest_psd first"
        )
    return m


def _outcome(check, m):
    try:
        return check("c", m).tobytes()
    except ValidationError as exc:
        return str(exc)


_TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal


def _edge(b, step, away=np.inf):
    """The last double ``a`` from ``b`` towards ``away`` with
    ``|a − b| ≤ 1e-8 + 1e-5·|b|`` in float64, then ``step`` ulps further
    out (``step > 0``) or back in."""
    tol = 1e-8 + 1e-5 * abs(b)
    a = b + tol if away > b else b - tol
    while abs(a - b) > tol:
        a = np.nextafter(a, b)
    while abs(np.nextafter(a, away) - b) <= tol:
        a = np.nextafter(a, away)
    for _ in range(abs(step)):
        a = np.nextafter(a, away if step > 0 else b)
    return float(a)


@st.composite
def _near_correlations(draw):
    """A valid d×d correlation (identity or equicorrelated), then up to
    four entries moved: a mirror to the symmetry tolerance's edge (±1
    ulp), a diagonal to the unit tolerance's edge, ±0.0 pairs,
    subnormals, or huge values."""
    d = draw(st.integers(1, 16))
    rho = draw(st.sampled_from([0.0, 0.3, -0.5 / d, 0.999]))
    m = np.full((d, d), rho)
    np.fill_diagonal(m, 1.0)
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        kind = draw(st.sampled_from(
            ["mirror", "diagonal", "zeros", "subnormal", "huge"]))
        step = draw(st.integers(-1, 1))
        if kind == "mirror":
            m[i, j] = _edge(m[j, i], step)
        elif kind == "diagonal":
            m[i, i] = _edge(1.0, step, draw(st.sampled_from([np.inf,
                                                             -np.inf])))
        elif kind == "zeros":
            m[i, j], m[j, i] = 0.0, -0.0
        elif kind == "subnormal":
            m[i, j], m[j, i] = _TINY * step, -_TINY
        else:
            m[i, j] = draw(st.sampled_from([1e308, -1e308, 1.7e308]))
            m[j, i] = draw(st.sampled_from([m[i, j], -m[i, j], 0.5]))
    return m


class TestCorrelationMatchesAllclose:
    """The symmetry and unit-diagonal tests are ``np.isclose``'s formula
    written out: every finite matrix gets the outcome (the returned
    bits, or the error) it got from ``np.allclose``."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(m=_near_correlations())
    def test_same_outcome_as_allclose(self, m):
        with np.errstate(over="ignore"):
            assert (_outcome(check_correlation_matrix, m)
                    == _outcome(_allclose_reference, m))

    def test_the_edge_is_inclusive_on_both_sides(self):
        """At the tolerance: accepted; one ulp past it: refused. (A mirror
        moved away from zero binds on ``|b|``, the smaller magnitude.)"""
        for b in (0.3, -0.7, 0.0):
            for step, ok in ((0, True), (-1, True), (1, False)):
                a = _edge(b, step, np.copysign(np.inf, b))
                m = np.array([[1.0, b], [a, 1.0]])
                assert np.allclose(m, m.T, atol=1e-8) is ok
                assert (_outcome(check_correlation_matrix, m)
                        != "c must be symmetric") is ok
        for away in (np.inf, -np.inf):
            over = np.array([[_edge(1.0, 1, away), 0.0], [0.0, 1.0]])
            with pytest.raises(ValidationError, match="diagonal"):
                check_correlation_matrix("c", over)
            at = np.array([[1.0, 0.0], [0.0, _edge(1.0, 0, away)]])
            assert np.allclose(np.diag(at), 1.0, atol=1e-8)
            # Above 1 the range check (to 1e-8) refuses it instead.
            assert _outcome(check_correlation_matrix, at) == (
                "c entries must lie in [-1, 1]" if away > 0 else at.tobytes())


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

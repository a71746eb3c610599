"""Shared utilities: argument validation, small numerics, table formatting."""

from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_probability,
    check_in_range,
    check_positive_int,
    check_correlation_matrix,
    check_1d_lengths,
)
from repro.utils.numerics import (
    norm_cdf,
    norm_pdf,
    norm_ppf,
    solve_tridiagonal,
    nearest_psd,
    relative_error,
)
from repro.utils.formatting import Table

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
    "check_positive_int",
    "check_correlation_matrix",
    "check_1d_lengths",
    "norm_cdf",
    "norm_pdf",
    "norm_ppf",
    "solve_tridiagonal",
    "nearest_psd",
    "relative_error",
    "Table",
]

"""Lookback payoffs with discrete monitoring (extrema include t = 0)."""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.payoffs.base import Payoff
from repro.utils.validation import check_positive

__all__ = [
    "FloatingStrikeLookbackCall",
    "FloatingStrikeLookbackPut",
    "FixedStrikeLookbackCall",
    "FixedStrikeLookbackPut",
]


class _Lookback(Payoff):
    is_path_dependent = True

    def __init__(self):
        # Instance attributes: a request's cache key reads vars(payoff).
        self.asset = 0
        self.dim = 1

    def terminal(self, prices: np.ndarray) -> np.ndarray:
        raise ValidationError(
            f"{type(self).__name__} is path-dependent; price it with full paths"
        )

    def _series(self, paths: np.ndarray) -> np.ndarray:
        return self._check_paths(paths)[:, :, self.asset]


class FloatingStrikeLookbackCall(_Lookback):
    """``S_T − min_t S_t`` — always non-negative by construction."""

    def path(self, paths: np.ndarray) -> np.ndarray:
        s = self._series(paths)
        return s[:, -1] - s.min(axis=1)


class FloatingStrikeLookbackPut(_Lookback):
    """``max_t S_t − S_T``."""

    def path(self, paths: np.ndarray) -> np.ndarray:
        s = self._series(paths)
        return s.max(axis=1) - s[:, -1]


class FixedStrikeLookbackCall(_Lookback):
    """``max(max_t S_t − K, 0)``."""

    def __init__(self, strike: float):
        super().__init__()
        self.strike = check_positive("strike", strike)

    def path(self, paths: np.ndarray) -> np.ndarray:
        return np.maximum(self._series(paths).max(axis=1) - self.strike, 0.0)


class FixedStrikeLookbackPut(_Lookback):
    """``max(K − min_t S_t, 0)``."""

    def __init__(self, strike: float):
        super().__init__()
        self.strike = check_positive("strike", strike)

    def path(self, paths: np.ndarray) -> np.ndarray:
        return np.maximum(self.strike - self._series(paths).min(axis=1), 0.0)

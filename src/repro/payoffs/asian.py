"""Asian (average-price) payoffs with discrete monitoring.

The average is taken over the ``m`` monitoring dates *after* t = 0, i.e.
over ``paths[:, 1:, asset]``. The geometric version has a closed form under
GBM with discrete monitoring (see :mod:`repro.analytic.asian`), making it
the accuracy baseline and control variate for the arithmetic version.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.payoffs.base import Payoff
from repro.utils.validation import check_positive

__all__ = [
    "AsianArithmeticCall",
    "AsianArithmeticPut",
    "AsianGeometricCall",
]


class _Asian(Payoff):
    is_path_dependent = True

    def __init__(self, strike: float, *, asset: int = 0, dim: int | None = None):
        self.strike = check_positive("strike", strike)
        self.asset = int(asset)
        self.dim = int(dim) if dim is not None else self.asset + 1
        if not 0 <= self.asset < self.dim:
            raise ValidationError(f"asset index {self.asset} out of range for dim={self.dim}")

    def terminal(self, prices: np.ndarray) -> np.ndarray:
        raise ValidationError(
            f"{type(self).__name__} is path-dependent; price it with full paths"
        )

    def _monitored(self, paths: np.ndarray) -> np.ndarray:
        return self._check_paths(paths)[:, 1:, self.asset]


class AsianArithmeticCall(_Asian):
    """``max(mean(S_t) − K, 0)`` over the monitoring dates."""

    def path(self, paths: np.ndarray) -> np.ndarray:
        avg = self._monitored(paths).mean(axis=1)
        return np.maximum(avg - self.strike, 0.0)


class AsianArithmeticPut(_Asian):
    """``max(K − mean(S_t), 0)``."""

    def path(self, paths: np.ndarray) -> np.ndarray:
        avg = self._monitored(paths).mean(axis=1)
        return np.maximum(self.strike - avg, 0.0)


class AsianGeometricCall(_Asian):
    """``max(geomean(S_t) − K, 0)`` — exact closed form under GBM."""

    def path(self, paths: np.ndarray) -> np.ndarray:
        s = self._monitored(paths)
        if np.any(s <= 0):
            raise ValidationError("geometric Asian requires strictly positive prices")
        gavg = np.exp(np.log(s).mean(axis=1))
        return np.maximum(gavg - self.strike, 0.0)

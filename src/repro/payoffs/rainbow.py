"""Rainbow (best-of / worst-of) and spread payoffs on several assets."""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.payoffs.base import Payoff
from repro.utils.validation import check_non_negative, check_positive, check_positive_int

__all__ = ["CallOnMax", "CallOnMin", "PutOnMax", "PutOnMin", "SpreadCall", "ExchangeOption"]


class _Rainbow(Payoff):
    def __init__(self, strike: float, dim: int = 2):
        self.strike = check_positive("strike", strike)
        self.dim = check_positive_int("dim", dim)
        if self.dim < 2:
            raise ValidationError("rainbow payoffs need at least two assets")


def _row_extreme(extreme: np.ufunc, p: np.ndarray) -> np.ndarray:
    """Row max or min of ``p`` (n, d ≥ 2), one column at a time.

    ``np.maximum`` / ``np.minimum`` down the columns: max and min are
    exact, so this is ``p.max(axis=1)`` / ``p.min(axis=1)`` value for
    value (a row holding a NaN stays NaN), without a reduction per row.
    """
    out = extreme(p[:, 0], p[:, 1])
    for j in range(2, p.shape[1]):
        extreme(out, p[:, j], out=out)
    return out


class CallOnMax(_Rainbow):
    """``max(max_i S_i − K, 0)`` — call on the best performer."""

    def terminal(self, prices: np.ndarray) -> np.ndarray:
        p = self._check_prices(prices)
        return np.maximum(_row_extreme(np.maximum, p) - self.strike, 0.0)


class CallOnMin(_Rainbow):
    """``max(min_i S_i − K, 0)`` — call on the worst performer."""

    def terminal(self, prices: np.ndarray) -> np.ndarray:
        p = self._check_prices(prices)
        return np.maximum(_row_extreme(np.minimum, p) - self.strike, 0.0)


class PutOnMax(_Rainbow):
    """``max(K − max_i S_i, 0)``."""

    def terminal(self, prices: np.ndarray) -> np.ndarray:
        p = self._check_prices(prices)
        return np.maximum(self.strike - _row_extreme(np.maximum, p), 0.0)


class PutOnMin(_Rainbow):
    """``max(K − min_i S_i, 0)``."""

    def terminal(self, prices: np.ndarray) -> np.ndarray:
        p = self._check_prices(prices)
        return np.maximum(self.strike - _row_extreme(np.minimum, p), 0.0)


class SpreadCall(Payoff):
    """``max(S_a − S_b − K, 0)`` — a two-asset spread call.

    With ``K = 0`` this degenerates to the Margrabe exchange option, which
    has an exact closed form (see :mod:`repro.analytic.margrabe`); with
    ``K > 0`` the Kirk approximation applies.
    """

    def __init__(self, strike: float = 0.0):
        self.strike = check_non_negative("strike", strike)
        # Instance attributes: a request's cache key reads vars(payoff).
        self.long_asset = 0
        self.short_asset = 1
        self.dim = 2

    def terminal(self, prices: np.ndarray) -> np.ndarray:
        p = self._check_prices(prices)
        return np.maximum(p[:, self.long_asset] - p[:, self.short_asset] - self.strike, 0.0)


class ExchangeOption(SpreadCall):
    """Margrabe's option to exchange asset ``b`` for asset ``a``: ``max(S_a − S_b, 0)``."""

    def __init__(self):
        # strike fixed at zero — that's what makes the closed form exact
        super().__init__(0.0)

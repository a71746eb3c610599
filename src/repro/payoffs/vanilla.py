"""Single-asset vanilla payoffs."""

from __future__ import annotations

import numpy as np

from repro.payoffs.base import Payoff
from repro.utils.validation import check_positive

__all__ = ["Call", "Put", "DigitalCall", "DigitalPut", "Straddle", "Forward"]


class _SingleAsset(Payoff):
    """Base for payoffs on one asset with a positive strike ``K``.

    ``asset`` and ``dim`` are instance attributes because a request's
    cache key describes its payoff by ``vars(payoff)``.
    """

    def __init__(self, strike: float):
        self.asset = 0
        self.dim = 1
        self.strike = check_positive("strike", strike)

    def _col(self, prices: np.ndarray) -> np.ndarray:
        return self._check_prices(prices)[:, self.asset]


class Call(_SingleAsset):
    """European call: ``max(S − K, 0)``."""

    def terminal(self, prices: np.ndarray) -> np.ndarray:
        return np.maximum(self._col(prices) - self.strike, 0.0)


class Put(_SingleAsset):
    """European put: ``max(K − S, 0)``."""

    def terminal(self, prices: np.ndarray) -> np.ndarray:
        return np.maximum(self.strike - self._col(prices), 0.0)


class DigitalCall(_SingleAsset):
    """Cash-or-nothing call: pays 1 when ``S > K``."""

    def __init__(self, strike: float):
        super().__init__(strike)
        self.cash = 1.0

    def terminal(self, prices: np.ndarray) -> np.ndarray:
        return np.where(self._col(prices) > self.strike, self.cash, 0.0)


class DigitalPut(_SingleAsset):
    """Cash-or-nothing put: pays 1 when ``S < K``."""

    def __init__(self, strike: float):
        super().__init__(strike)
        self.cash = 1.0

    def terminal(self, prices: np.ndarray) -> np.ndarray:
        return np.where(self._col(prices) < self.strike, self.cash, 0.0)


class Straddle(_SingleAsset):
    """Call + put at the same strike: ``|S − K|``."""

    def terminal(self, prices: np.ndarray) -> np.ndarray:
        return np.abs(self._col(prices) - self.strike)


class Forward(_SingleAsset):
    """Linear forward payoff ``S`` (zero strike; useful as a control
    variate because its expectation is known in closed form)."""

    def __init__(self):
        self.asset = 0
        self.dim = 1
        self.strike = 0.0

    def terminal(self, prices: np.ndarray) -> np.ndarray:
        return self._col(prices) - self.strike

"""Basket payoffs — the canonical *multidimensional* contracts of the paper.

An arithmetic basket option pays on the weighted average of ``d`` asset
prices; it has no closed form and is the workhorse workload of the parallel
Monte Carlo evaluation. Its geometric sibling *does* have a closed form
under GBM (a geometric average of lognormals is lognormal), which makes it
both an accuracy baseline (experiment T1) and the classical control variate
for the arithmetic basket (experiment T5).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.payoffs.base import Payoff
from repro.utils.validation import check_positive

__all__ = ["BasketCall", "BasketPut", "GeometricBasketCall", "GeometricBasketPut"]


def _normalize_weights(weights, dim_hint: int | None) -> np.ndarray:
    if isinstance(weights, (int, np.integer)) and dim_hint is None:
        # Interpret a bare integer as "equal weights on that many assets".
        w = np.full(int(weights), 1.0 / int(weights))
    else:
        w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("weights must be a non-empty 1-D array")
    if not np.all(np.isfinite(w)):
        raise ValidationError("weights must be finite")
    if np.any(w < 0):
        raise ValidationError("basket weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValidationError("basket weights must sum to a positive number")
    return w / total


class _LevelBasket(Payoff):
    """Common base: normalized weights, a strike, and a call (``_call``)
    or put on the basket level alone, so a ladder's shared level prices
    each contract."""

    def __init__(self, weights, strike: float):
        self.weights = _normalize_weights(weights, None)
        self.dim = self.weights.size
        self.strike = check_positive("strike", strike)

    def terminal(self, prices: np.ndarray) -> np.ndarray:
        return self.terminal_from_level(self.basket_level(prices))

    def terminal_from_level(self, level: np.ndarray) -> np.ndarray:
        gain = level - self.strike if self._call else self.strike - level
        return np.maximum(gain, 0.0, out=gain)


class _Basket(_LevelBasket):
    """Common base for arithmetic-average baskets."""

    def basket_level(self, prices: np.ndarray) -> np.ndarray:
        """The weighted arithmetic average ``Σ w_i S_i`` per row."""
        return self._check_prices(prices) @ self.weights


class BasketCall(_Basket):
    """``max(Σ w_i S_i − K, 0)`` with weights normalized to sum to one."""

    _call = True


class BasketPut(_Basket):
    """``max(K − Σ w_i S_i, 0)``."""

    _call = False


class _GeometricBasket(_LevelBasket):
    """Common base for geometric-average baskets."""

    def basket_level(self, prices: np.ndarray) -> np.ndarray:
        """The weighted geometric average ``Π S_i^{w_i}`` per row."""
        p = self._check_prices(prices)
        if np.any(p <= 0):
            raise ValidationError("geometric basket requires strictly positive prices")
        return np.exp(np.log(p) @ self.weights)


class GeometricBasketCall(_GeometricBasket):
    """``max(Π S_i^{w_i} − K, 0)`` — closed form available under GBM."""

    _call = True


class GeometricBasketPut(_GeometricBasket):
    """``max(K − Π S_i^{w_i}, 0)``."""

    _call = False

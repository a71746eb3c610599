"""Single-barrier options with discrete monitoring.

All eight knock types are expressed by two flags: barrier *direction*
(``up``/``down``) and *knock* (``in``/``out``), on a call or put. The
barrier is monitored at the path's discrete dates (including t = 0, matching
how a discretely monitored contract would observe the fixing at inception).
Continuous-monitoring closed forms (Reiner–Rubinstein) live in
:mod:`repro.analytic.barrier`; discrete monitoring converges to them as the
monitoring frequency grows (up to the well-known Broadie–Glasserman–Kou
barrier-shift effect, which the tests account for with tolerance).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.payoffs.base import Payoff
from repro.utils.validation import check_positive

__all__ = ["BarrierOption"]

_KINDS = ("up-and-out", "up-and-in", "down-and-out", "down-and-in")
_OPTIONS = ("call", "put")


class BarrierOption(Payoff):
    """A discretely monitored single-barrier option.

    Parameters
    ----------
    kind : one of ``"up-and-out"``, ``"up-and-in"``, ``"down-and-out"``,
        ``"down-and-in"``.
    option : ``"call"`` or ``"put"``.
    strike, barrier : positive levels. ``up`` barriers must start above the
        spot path to be meaningful, but that is the caller's modelling
        choice and is not enforced here.
    """

    is_path_dependent = True

    def __init__(
        self,
        kind: str,
        option: str,
        strike: float,
        barrier: float,
    ):
        if kind not in _KINDS:
            raise ValidationError(f"kind must be one of {_KINDS}, got {kind!r}")
        if option not in _OPTIONS:
            raise ValidationError(f"option must be one of {_OPTIONS}, got {option!r}")
        self.kind = kind
        self.option = option
        self.strike = check_positive("strike", strike)
        self.barrier = check_positive("barrier", barrier)
        # Instance attributes: a request's cache key reads vars(payoff).
        self.rebate = 0.0
        self.asset = 0
        self.dim = 1

    @property
    def direction(self) -> str:
        """``"up"`` or ``"down"``."""
        return self.kind.split("-")[0]

    @property
    def knock(self) -> str:
        """``"in"`` or ``"out"``."""
        return self.kind.split("-")[-1]

    def terminal(self, prices: np.ndarray) -> np.ndarray:
        raise ValidationError("BarrierOption is path-dependent; price it with full paths")

    def _vanilla(self, s_term: np.ndarray) -> np.ndarray:
        if self.option == "call":
            return np.maximum(s_term - self.strike, 0.0)
        return np.maximum(self.strike - s_term, 0.0)

    def path(self, paths: np.ndarray) -> np.ndarray:
        p = self._check_paths(paths)[:, :, self.asset]
        if self.direction == "up":
            hit = (p >= self.barrier).any(axis=1)
        else:
            hit = (p <= self.barrier).any(axis=1)
        vanilla = self._vanilla(p[:, -1])
        if self.knock == "out":
            return np.where(hit, 0.0, vanilla)
        return np.where(hit, vanilla, 0.0)

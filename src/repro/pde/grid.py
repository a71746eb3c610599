"""Spatial grids for the finite-difference engines.

All solvers work in ``x = ln(S/S₀)`` where the Black–Scholes operator has
constant coefficients; the grid is uniform in ``x``, spans ``±n_std``
diffusion standard deviations (plus the drift excursion), and always places
``x = 0`` (the spot) exactly on a node so no interpolation error enters the
quoted price.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ValidationError
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["LogGrid"]


class LogGrid:
    """A uniform grid in log-moneyness centred on the spot.

    Parameters
    ----------
    spot : S₀ > 0.
    vol : lognormal volatility (sets the grid half-width).
    expiry : horizon in years.
    n_space : number of *intervals*; the grid has ``n_space + 1`` nodes and
        ``n_space`` must be even so the spot sits on the middle node.
    drift : absolute drift ``|r − q − σ²/2|·T`` added to the half-width of
        ``5σ√T`` (ample for vanilla tails).
    """

    def __init__(
        self,
        spot: float,
        vol: float,
        expiry: float,
        n_space: int,
        *,
        drift: float = 0.0,
    ):
        check_positive("spot", spot)
        check_positive("vol", vol)
        check_positive("expiry", expiry)
        n = check_positive_int("n_space", n_space)
        if n % 2:
            raise ValidationError(f"n_space must be even to centre the spot, got {n}")
        if n < 4:
            raise ValidationError(f"n_space must be at least 4, got {n}")
        self.spot = float(spot)
        half_width = 5.0 * vol * math.sqrt(expiry) + abs(drift) * expiry
        self.x = np.linspace(-half_width, half_width, n + 1)
        self.dx = float(self.x[1] - self.x[0])
        self.s = self.spot * np.exp(self.x)
        #: Index of the node holding the spot (x = 0).
        self.spot_index = n // 2

    @property
    def n_nodes(self) -> int:
        return self.x.size

    def value_at_spot(self, values: np.ndarray) -> float:
        """Read a nodal value vector at the spot node."""
        v = np.asarray(values, dtype=float)
        if v.shape[0] != self.n_nodes:
            raise ValidationError(
                f"values must have {self.n_nodes} nodes, got {v.shape[0]}"
            )
        return float(v[self.spot_index])

    def derivatives_at_spot(self, values: np.ndarray) -> tuple[float, float]:
        """(∂V/∂S, ∂²V/∂S²) at the spot by central differences in x.

        Chain rule: V_S = V_x / S, V_SS = (V_xx − V_x) / S².
        """
        v = np.asarray(values, dtype=float)
        i = self.spot_index
        v_x = (v[i + 1] - v[i - 1]) / (2.0 * self.dx)
        v_xx = (v[i + 1] - 2.0 * v[i] + v[i - 1]) / (self.dx * self.dx)
        s0 = self.spot
        return v_x / s0, (v_xx - v_x) / (s0 * s0)

"""Result object returned by every Monte Carlo pricing call."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.utils.numerics import norm_ppf

__all__ = ["MCResult"]


@dataclass(frozen=True)
class MCResult:
    """A priced contract with its statistical error.

    Attributes
    ----------
    price : discounted Monte Carlo estimate.
    stderr : standard error of the estimate (0 would mean exact).
    n_paths : number of simulated paths behind the estimate.
    technique : name of the estimator ("plain", "antithetic", ...).
    meta : free-form diagnostics (β for control variates, replicate count
        for randomized QMC, per-rank info for parallel runs, ...).
    """

    price: float
    stderr: float
    n_paths: int
    technique: str = "plain"
    meta: dict = field(default_factory=dict)

    def confidence_interval(self) -> tuple[float, float]:
        """Normal-approximation 95% confidence interval for the price."""
        z = float(norm_ppf(0.975))
        return (self.price - z * self.stderr, self.price + z * self.stderr)

    def within(self, exact: float) -> bool:
        """True when ``exact`` lies inside ±4 standard errors (test helper)."""
        if math.isinf(self.stderr):
            return False
        return abs(self.price - exact) <= 4.0 * max(self.stderr, 1e-12)

    def __str__(self) -> str:
        return (
            f"{self.price:.6f} ± {self.stderr:.6f} "
            f"({self.technique}, n={self.n_paths})"
        )

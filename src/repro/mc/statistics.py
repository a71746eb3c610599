"""Mergeable sufficient statistics — the reduction payload of parallel MC.

The key design decision (called out in DESIGN.md): parallel ranks never ship
raw path values. Each rank accumulates a tiny sufficient-statistics object —
``(n, Σy, Σy²)`` for plain estimators, six cross-moments for control
variates, per-stratum triples for stratified sampling — and the reduction
combines them associatively. Payloads are O(1) in the number of paths, so
communication cost is independent of the workload size.

All merge operations are exact (floating-point associativity aside) and are
property-tested against single-shot accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.utils.numerics import norm_ppf

__all__ = ["SampleStats", "CrossStats", "StrataStats"]


@dataclass(frozen=True)
class SampleStats:
    """Count, sum and sum of squares of a sample — enough for mean/stderr."""

    n: int = 0
    total: float = 0.0
    total_sq: float = 0.0

    @classmethod
    def from_values(cls, values: np.ndarray) -> "SampleStats":
        v = np.asarray(values, dtype=float)
        return cls(n=int(v.size), total=float(v.sum()), total_sq=float((v * v).sum()))

    def merge(self, other: "SampleStats") -> "SampleStats":
        return SampleStats(
            n=self.n + other.n,
            total=self.total + other.total,
            total_sq=self.total_sq + other.total_sq,
        )

    @property
    def mean(self) -> float:
        if self.n == 0:
            raise ValidationError("mean of an empty sample is undefined")
        return self.total / self.n

    @property
    def variance(self) -> float:
        """Unbiased sample variance (ddof = 1)."""
        if self.n < 2:
            return 0.0
        m = self.mean
        # Guard tiny negative values from cancellation.
        return max((self.total_sq - self.n * m * m) / (self.n - 1), 0.0)

    @property
    def stderr(self) -> float:
        if self.n == 0:
            return math.inf
        return math.sqrt(self.variance / self.n)

    def confidence_interval(self) -> tuple[float, float]:
        """Normal-approximation 95% CI for the mean."""
        half = float(norm_ppf(0.975)) * self.stderr
        m = self.mean
        return (m - half, m + half)


@dataclass(frozen=True)
class CrossStats:
    """Joint moments of (payoff Y, control X) for control-variate estimators.

    Carries ``(n, Σy, Σy², Σx, Σx², Σxy)``. The optimal coefficient
    ``β = Cov(Y, X)/Var(X)`` and the adjusted estimator
    ``Ȳ − β (X̄ − μ_X)`` are computed *after* the global reduction, so every
    rank contributes to one shared β — the estimator is then identical to
    the sequential one.
    """

    n: int = 0
    sy: float = 0.0
    syy: float = 0.0
    sx: float = 0.0
    sxx: float = 0.0
    sxy: float = 0.0

    @classmethod
    def from_values(cls, y: np.ndarray, x: np.ndarray) -> "CrossStats":
        y = np.asarray(y, dtype=float)
        x = np.asarray(x, dtype=float)
        if y.shape != x.shape:
            raise ValidationError("payoff and control samples must align")
        return cls(
            n=int(y.size),
            sy=float(y.sum()),
            syy=float((y * y).sum()),
            sx=float(x.sum()),
            sxx=float((x * x).sum()),
            sxy=float((y * x).sum()),
        )

    def merge(self, other: "CrossStats") -> "CrossStats":
        return CrossStats(
            n=self.n + other.n,
            sy=self.sy + other.sy,
            syy=self.syy + other.syy,
            sx=self.sx + other.sx,
            sxx=self.sxx + other.sxx,
            sxy=self.sxy + other.sxy,
        )

    @property
    def beta(self) -> float:
        """Estimated optimal control coefficient Cov(Y,X)/Var(X)."""
        if self.n < 2:
            return 0.0
        var_x = self.sxx - self.sx * self.sx / self.n
        # Relative guard: a (near-)constant control leaves only cancellation
        # noise in var_x; regressing on it would produce garbage β.
        scale = max(self.sxx, self.sx * self.sx / self.n, 1e-300)
        if var_x <= 1e-12 * scale:
            return 0.0
        cov = self.sxy - self.sx * self.sy / self.n
        return cov / var_x

    def adjusted(self, control_mean: float) -> tuple[float, float]:
        """(mean, stderr) of the control-variate-adjusted estimator."""
        if self.n == 0:
            raise ValidationError("empty control-variate sample")
        b = self.beta
        mean = self.sy / self.n - b * (self.sx / self.n - control_mean)
        if self.n < 2:
            return mean, math.inf
        var_y = max((self.syy - self.sy * self.sy / self.n) / (self.n - 1), 0.0)
        var_x = max((self.sxx - self.sx * self.sx / self.n) / (self.n - 1), 0.0)
        cov = (self.sxy - self.sx * self.sy / self.n) / (self.n - 1)
        var_adj = max(var_y - 2.0 * b * cov + b * b * var_x, 0.0)
        return mean, math.sqrt(var_adj / self.n)


@dataclass(frozen=True)
class StrataStats:
    """Per-stratum :class:`SampleStats`, mergeable stratum-by-stratum.

    For proportional allocation over ``L`` equal-probability strata the
    stratified estimator is ``(1/L) Σ_l mean_l`` with variance
    ``(1/L²) Σ_l var_l / n_l``.
    """

    strata: tuple[SampleStats, ...] = field(default_factory=tuple)

    @classmethod
    def empty(cls, n_strata: int) -> "StrataStats":
        if n_strata <= 0:
            raise ValidationError(f"n_strata must be positive, got {n_strata}")
        return cls(tuple(SampleStats() for _ in range(n_strata)))

    def merge(self, other: "StrataStats") -> "StrataStats":
        if len(self.strata) != len(other.strata):
            raise ValidationError("cannot merge StrataStats with different strata counts")
        return StrataStats(tuple(a.merge(b) for a, b in zip(self.strata, other.strata)))

    def add_stratum_values(self, stratum: int, values: np.ndarray) -> "StrataStats":
        if not 0 <= stratum < len(self.strata):
            raise ValidationError(f"stratum {stratum} out of range")
        new = list(self.strata)
        new[stratum] = new[stratum].merge(SampleStats.from_values(values))
        return StrataStats(tuple(new))

    @property
    def n(self) -> int:
        return sum(s.n for s in self.strata)

    @property
    def mean(self) -> float:
        lcount = len(self.strata)
        if any(s.n == 0 for s in self.strata):
            raise ValidationError("every stratum needs at least one sample")
        return sum(s.mean for s in self.strata) / lcount

    @property
    def stderr(self) -> float:
        lcount = len(self.strata)
        if any(s.n == 0 for s in self.strata):
            return math.inf
        var = sum(s.variance / s.n for s in self.strata) / (lcount * lcount)
        return math.sqrt(var)

"""Speedup and efficiency series — equations (2) and (4) of the metric
canon: ``S(P) = T(1)/T(P)``, ``E(P) = S(P)/P``."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.utils.formatting import Table

__all__ = ["speedup", "ScalingSeries"]


def speedup(t1: float, tp: float) -> float:
    """``S = T(1) / T(P)``."""
    if t1 <= 0 or tp <= 0:
        raise ValidationError(f"times must be positive, got T(1)={t1}, T(P)={tp}")
    return t1 / tp


@dataclass(frozen=True)
class ScalingSeries:
    """A T(P) measurement series with derived speedup/efficiency columns.

    ``times[0]`` must correspond to ``ps[0] == 1`` (the sequential
    baseline) unless an explicit ``t1`` override is supplied — e.g. when
    the best *sequential* algorithm differs from the parallel one run on
    one processor.
    """

    ps: tuple[int, ...]
    times: tuple[float, ...]
    t1: float | None = None
    label: str = ""
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.ps) != len(self.times) or not self.ps:
            raise ValidationError("ps and times must be equal-length non-empty sequences")
        if any(p <= 0 for p in self.ps) or any(t <= 0 for t in self.times):
            raise ValidationError("processor counts and times must be positive")
        if self.t1 is None and self.ps[0] != 1:
            raise ValidationError(
                "series must start at P=1 or supply an explicit t1 baseline"
            )

    @classmethod
    def from_results(cls, results, *, label: str = "") -> "ScalingSeries":
        """Build from a list of :class:`~repro.engine.ParallelRunResult`."""
        return cls(
            ps=tuple(r.p for r in results),
            times=tuple(r.sim_time for r in results),
            label=label,
            extras={
                "comm_times": tuple(r.comm_time for r in results),
                "idle_times": tuple(r.idle_time for r in results),
            },
        )

    @property
    def baseline(self) -> float:
        return self.t1 if self.t1 is not None else self.times[0]

    @property
    def speedups(self) -> np.ndarray:
        return self.baseline / np.asarray(self.times)

    @property
    def efficiencies(self) -> np.ndarray:
        return self.speedups / np.asarray(self.ps, dtype=float)

    def table(self) -> Table:
        """Render the classic four-column scaling table."""
        t = Table(["P", "T(P) [s]", "speedup", "efficiency"],
                  title=self.label or None, floatfmt=".4g")
        for p, tp, s, e in zip(self.ps, self.times, self.speedups, self.efficiencies):
            t.add_row([p, tp, float(s), float(e)])
        return t

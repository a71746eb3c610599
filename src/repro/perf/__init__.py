"""Performance-evaluation harness: the metrics and laws the paper's
evaluation section is built from.

* :mod:`~repro.perf.metrics` — T(P) → speedup/efficiency series.
* :mod:`~repro.perf.laws` — Amdahl, Gustafson, Karp–Flatt; serial-fraction
  fitting from measured times.
* :mod:`~repro.perf.isoefficiency` — solve for the problem size that holds
  efficiency constant as P grows (Grama–Gupta–Kumar).
* :mod:`~repro.perf.experiment` — sweep runner producing paper-style tables.
* :mod:`~repro.perf.gantt` / :mod:`~repro.perf.reporting` — ASCII Gantt
  timelines of traced cluster runs; CSV exporters.
"""

from repro.perf.metrics import ScalingSeries, speedup
from repro.perf.laws import (
    amdahl_speedup,
    gustafson_speedup,
    karp_flatt,
    fit_serial_fraction,
)
from repro.perf.isoefficiency import isoefficiency_curve, solve_problem_size
from repro.perf.experiment import ScalingExperiment
from repro.perf.gantt import render_gantt

__all__ = [
    "render_gantt",
    "ScalingSeries",
    "speedup",
    "amdahl_speedup",
    "gustafson_speedup",
    "karp_flatt",
    "fit_serial_fraction",
    "isoefficiency_curve",
    "solve_problem_size",
    "ScalingExperiment",
]

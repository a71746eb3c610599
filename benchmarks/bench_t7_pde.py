"""T7 — Parallel ADI PDE scaling across grid sizes.

Paper-shape claims: speedup rises then collapses as the two per-step
all-to-alls start to dominate; the optimum P grows with the grid size;
accuracy (vs Margrabe on the zero-strike contract) is P-invariant.
"""

from __future__ import annotations

import numpy as np

from repro.analytic import kirk_spread_price
from repro.engine import ParallelPDEPricer
from repro.perf import ScalingSeries
from repro.utils import Table
from repro.workloads import spread_workload

PS = (1, 2, 4, 8, 16, 32)
GRIDS = (64, 128, 256)
STEPS = 16


def build_t7_table():
    w = spread_workload()
    table = Table(
        ["P"] + [f"S(P) grid {g}²" for g in GRIDS],
        title="T7 — ADI speedup vs P for growing grids (2-asset spread call)",
        floatfmt=".4g",
    )
    series = {}
    for g in GRIDS:
        pricer = ParallelPDEPricer(n_space=g, n_time=STEPS)
        series[g] = ScalingSeries.from_results(
            pricer.sweep(w.model, w.payoff, w.expiry, PS)
        )
    for i, p in enumerate(PS):
        table.add_row([p] + [float(series[g].speedups[i]) for g in GRIDS])
    return table, series


def test_t7_pde_scaling(benchmark, show):
    w = spread_workload()
    pricer = ParallelPDEPricer(n_space=GRIDS[0], n_time=STEPS)
    benchmark(lambda: pricer.price(w.model, w.payoff, w.expiry, 8))
    table, series = build_t7_table()
    show(table.render())
    # Optimal P grows with grid size.
    best_p = {g: PS[int(np.argmax(series[g].speedups))] for g in GRIDS}
    assert best_p[256] >= best_p[64]
    # Speedup collapses past the optimum on the smallest grid.
    s64 = series[64].speedups
    assert s64[-1] < max(s64)

    # Accuracy: price is close to Kirk and identical across P.
    kirk = kirk_spread_price(100, 96, 5.0, 0.25, 0.2, 0.5, 0.05, 1.0)
    pricer = ParallelPDEPricer(n_space=256, n_time=64)
    p1 = pricer.price(w.model, w.payoff, w.expiry, 1)
    p8 = pricer.price(w.model, w.payoff, w.expiry, 8)
    assert abs(p1.price - p8.price) < 1e-12
    assert abs(p1.price - kirk) < 0.02 * kirk


if __name__ == "__main__":
    print(build_t7_table()[0].render())

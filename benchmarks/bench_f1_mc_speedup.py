"""F1 — Monte Carlo speedup curves S(P) for several dimensions.

Paper-shape claim: near-linear speedup (efficiency ≥ 0.9 at P=16) for every
dimension; higher dimension ⇒ *better* efficiency (more compute per path to
amortize the fixed reduction cost).
"""

from __future__ import annotations

from repro.engine import ParallelMCPricer
from repro.perf import ScalingSeries
from repro.utils import Table
from repro.workloads import DIMENSION_SWEEP, PROCESSOR_SWEEP, basket_workload

N_PATHS = 200_000


def build_f1_series() -> tuple[Table, dict[int, ScalingSeries]]:
    table = Table(
        ["P"] + [f"S(P) d={d}" for d in DIMENSION_SWEEP],
        title=f"F1 — MC speedup vs P (ideal = P), N={N_PATHS}",
        floatfmt=".4g",
    )
    series: dict[int, ScalingSeries] = {}
    for d in DIMENSION_SWEEP:
        w = basket_workload(d)
        pricer = ParallelMCPricer(N_PATHS, seed=1)
        results = pricer.sweep(w.model, w.payoff, w.expiry, PROCESSOR_SWEEP)
        series[d] = ScalingSeries.from_results(results, label=f"d={d}")
    for i, p in enumerate(PROCESSOR_SWEEP):
        table.add_row([p] + [float(series[d].speedups[i]) for d in DIMENSION_SWEEP])
    return table, series


def test_f1_mc_speedup(benchmark, show):
    w = basket_workload(2)
    pricer = ParallelMCPricer(N_PATHS, seed=1)
    benchmark(lambda: pricer.sweep(w.model, w.payoff, w.expiry, (1, 8)))
    table, series = build_f1_series()
    show(table.render())
    for d, s in series.items():
        assert s.efficiencies[4] > 0.90, f"d={d} efficiency at P=16 too low"
    # Higher dimension amortizes the reduction better.
    assert series[8].efficiencies[-1] >= series[1].efficiencies[-1]


if __name__ == "__main__":
    print(build_f1_series()[0].render())

"""F2 — MC efficiency E(P) for several problem sizes N.

Paper-shape claim: efficiency improves with problem size at every P
(the isoefficiency mechanism); small problems stop scaling first.
"""

from __future__ import annotations

from repro.engine import ParallelMCPricer
from repro.perf import ScalingSeries
from repro.utils import Table
from repro.workloads import PATH_COUNTS, PROCESSOR_SWEEP, basket_workload


def build_f2_series() -> tuple[Table, dict[int, ScalingSeries]]:
    w = basket_workload(4)
    table = Table(
        ["P"] + [f"E(P) N={n}" for n in PATH_COUNTS],
        title="F2 — MC efficiency vs P for growing N (4-asset basket)",
        floatfmt=".4g",
    )
    series: dict[int, ScalingSeries] = {}
    for n in PATH_COUNTS:
        pricer = ParallelMCPricer(n, seed=1)
        results = pricer.sweep(w.model, w.payoff, w.expiry, PROCESSOR_SWEEP)
        series[n] = ScalingSeries.from_results(results, label=f"N={n}")
    for i, p in enumerate(PROCESSOR_SWEEP):
        table.add_row([p] + [float(series[n].efficiencies[i]) for n in PATH_COUNTS])
    return table, series


def test_f2_mc_efficiency(benchmark, show):
    w = basket_workload(4)
    pricer = ParallelMCPricer(PATH_COUNTS[0], seed=1)
    benchmark(lambda: pricer.price(w.model, w.payoff, w.expiry, 16))
    table, series = build_f2_series()
    show(table.render())
    small, mid, large = (series[n] for n in PATH_COUNTS)
    # At P=32, efficiency is monotone in problem size.
    assert small.efficiencies[-1] < mid.efficiencies[-1] < large.efficiencies[-1]
    assert large.efficiencies[-1] > 0.95


if __name__ == "__main__":
    print(build_f2_series()[0].render())

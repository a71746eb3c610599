"""T2 — Parallel Monte Carlo execution times T(P), dimensions 1..8.

Paper-shape claim: simulated T(P) falls ≈ linearly in P for every
dimension; absolute time grows ≈ linearly with dimension (per-path work is
∝ d).
"""

from __future__ import annotations

from repro.engine import ParallelMCPricer
from repro.utils import Table
from repro.workloads import DIMENSION_SWEEP, PROCESSOR_SWEEP, basket_workload

N_PATHS = 200_000


def build_t2_table() -> tuple[Table, dict]:
    table = Table(
        ["d"] + [f"T(P={p}) [s]" for p in PROCESSOR_SWEEP],
        title=f"T2 — parallel MC simulated times, basket call, N={N_PATHS}",
        floatfmt=".4g",
    )
    times: dict[int, list[float]] = {}
    for d in DIMENSION_SWEEP:
        w = basket_workload(d)
        pricer = ParallelMCPricer(N_PATHS, seed=1)
        row = [pricer.price(w.model, w.payoff, w.expiry, p).sim_time
               for p in PROCESSOR_SWEEP]
        times[d] = row
        table.add_row([d] + row)
    return table, times


def test_t2_mc_times(benchmark, show):
    w = basket_workload(4)
    pricer = ParallelMCPricer(N_PATHS, seed=1)
    benchmark(lambda: pricer.price(w.model, w.payoff, w.expiry, 8))
    table, times = build_t2_table()
    show(table.render())
    for d, row in times.items():
        # Strong scaling: P=32 at least 20× faster than P=1.
        assert row[0] / row[-1] > 20, f"d={d} scaled poorly: {row}"
    # Work grows with dimension.
    assert times[8][0] > times[1][0]


if __name__ == "__main__":
    print(build_t2_table()[0].render())

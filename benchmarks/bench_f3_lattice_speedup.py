"""F3 — Multidimensional lattice speedup for several step counts.

Paper-shape claim: lattice speedup saturates well below linear (per-level
synchronization); larger lattices scale better because each level carries
more work per halo exchange.
"""

from __future__ import annotations

from repro.engine import ParallelLatticePricer
from repro.perf import ScalingSeries
from repro.utils import Table
from repro.workloads import PROCESSOR_SWEEP, rainbow_workload

STEPS = (64, 256, 1024)


def build_f3_series() -> tuple[Table, dict[int, ScalingSeries]]:
    w = rainbow_workload()
    table = Table(
        ["P"] + [f"S(P) n={n}" for n in STEPS],
        title="F3 — BEG lattice speedup vs P (2-asset max-call)",
        floatfmt=".4g",
    )
    series: dict[int, ScalingSeries] = {}
    for n in STEPS:
        pricer = ParallelLatticePricer(n)
        results = pricer.sweep(w.model, w.payoff, w.expiry, PROCESSOR_SWEEP)
        series[n] = ScalingSeries.from_results(results, label=f"steps={n}")
    for i, p in enumerate(PROCESSOR_SWEEP):
        table.add_row([p] + [float(series[n].speedups[i]) for n in STEPS])
    return table, series


def test_f3_lattice_speedup(benchmark, show):
    w = rainbow_workload()
    pricer = ParallelLatticePricer(STEPS[0])
    benchmark(lambda: pricer.price(w.model, w.payoff, w.expiry, 8))
    table, series = build_f3_series()
    show(table.render())
    for n, s in series.items():
        # Sub-linear at P=32 for every size.
        assert s.speedups[-1] < 32 * 0.95, f"steps={n} unrealistically linear"
        # Never slower than serial at P=32 (the 2-D levels carry enough work).
        assert s.speedups[-1] > 1.0
    # The small lattice is latency-bound: ≤ half the ideal efficiency.
    assert series[64].speedups[-1] < 32 * 0.5
    # Bigger lattice ⇒ better speedup at P=32; the big one is clearly
    # profitable while the small one barely breaks even.
    assert series[1024].speedups[-1] > series[64].speedups[-1]
    assert series[1024].speedups[-1] > 2.0


if __name__ == "__main__":
    print(build_f3_series()[0].render())

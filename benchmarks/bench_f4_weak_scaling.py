"""F4 — Strong vs weak scaling (Amdahl vs Gustafson perspectives).

Paper-shape claim: with the workload grown ∝ P (weak scaling), the scaled
speedup stays near-linear far past the point where strong scaling of the
fixed-size problem has flattened.
"""

from __future__ import annotations

from repro.engine import ParallelMCPricer
from repro.perf import gustafson_speedup
from repro.utils import Table
from repro.workloads import PROCESSOR_SWEEP, basket_workload

BASE_N = 20_000  # deliberately small so strong scaling flattens in range


def build_f4_table() -> tuple[Table, list[float], list[float]]:
    w = basket_workload(4)
    strong_pricer = ParallelMCPricer(BASE_N, seed=1)
    t1 = strong_pricer.price(w.model, w.payoff, w.expiry, 1).sim_time

    strong, weak = [], []
    table = Table(
        ["P", "strong S(P)", "weak scaled S(P)", "Gustafson bound"],
        title=f"F4 — strong vs weak scaling, base N={BASE_N}",
        floatfmt=".4g",
    )
    for p in PROCESSOR_SWEEP:
        ts = strong_pricer.price(w.model, w.payoff, w.expiry, p).sim_time
        strong.append(t1 / ts)
        # Weak scaling: N grows ∝ P; scaled speedup = P · T(1,N₀)/T(P,P·N₀).
        weak_pricer = ParallelMCPricer(BASE_N * p, seed=1)
        tw = weak_pricer.price(w.model, w.payoff, w.expiry, p).sim_time
        weak.append(p * t1 / tw)
        table.add_row([p, strong[-1], weak[-1], gustafson_speedup(p, 0.0)])
    return table, strong, weak


def test_f4_weak_scaling(benchmark, show):
    w = basket_workload(4)
    pricer = ParallelMCPricer(BASE_N * 8, seed=1)
    benchmark(lambda: pricer.price(w.model, w.payoff, w.expiry, 8))
    table, strong, weak = build_f4_table()
    show(table.render())
    # Weak scaling dominates strong scaling at high P.
    assert weak[-1] > strong[-1]
    # Weak scaled speedup stays ≥ 95% of ideal across the sweep.
    assert weak[-1] > 32 * 0.95


if __name__ == "__main__":
    print(build_f4_table()[0].render())

"""T5 — Variance reduction: standard error and effective speedup of each
technique on the 4-asset arithmetic basket.

Paper-shape claim: antithetic ≈ mild gain; stratified ≈ moderate;
geometric control variate ≈ 10–100× stderr reduction (the classical
result); randomized QMC the strongest at this sample size. "Var speedup"
is (stderr_plain/stderr_tech)² — the factor fewer paths needed for equal
error.
"""

from __future__ import annotations

from repro.analytic import geometric_basket_price
from repro.mc import (
    Antithetic,
    ControlVariate,
    MonteCarloEngine,
    PlainMC,
    QMCSobol,
    Stratified,
)
from repro.payoffs import GeometricBasketCall
from repro.utils import Table
from repro.workloads import basket_workload

N = 65_536


def build_t5_table():
    w = basket_workload(4)
    gexact = geometric_basket_price(w.model, [0.25] * 4, 100.0, 1.0)
    techniques = {
        "plain": PlainMC(),
        "antithetic": Antithetic(),
        "stratified(32)": Stratified(32),
        "control-variate": ControlVariate(GeometricBasketCall([0.25] * 4, 100.0),
                                          gexact),
        "qmc-sobol(8)": QMCSobol(8),
    }
    table = Table(
        ["technique", "price", "stderr", "var speedup ×"],
        title=f"T5 — variance reduction on the 4-asset basket call, N={N}",
        floatfmt=".5g",
    )
    stderrs = {}
    base = None
    for name, tech in techniques.items():
        r = MonteCarloEngine(N, technique=tech, seed=7).price(w.model, w.payoff,
                                                              w.expiry)
        stderrs[name] = r.stderr
        if base is None:
            base = r.stderr
        table.add_row([name, r.price, r.stderr, (base / r.stderr) ** 2])
    return table, stderrs


def test_t5_variance_reduction(benchmark, show):
    w = basket_workload(4)
    gexact = geometric_basket_price(w.model, [0.25] * 4, 100.0, 1.0)
    cv = ControlVariate(GeometricBasketCall([0.25] * 4, 100.0), gexact)
    eng = MonteCarloEngine(N, technique=cv, seed=7)
    benchmark(lambda: eng.price(w.model, w.payoff, w.expiry))
    table, stderrs = build_t5_table()
    show(table.render())
    assert stderrs["antithetic"] < stderrs["plain"]
    assert stderrs["stratified(32)"] < stderrs["plain"]
    assert stderrs["control-variate"] < 0.15 * stderrs["plain"]
    assert stderrs["qmc-sobol(8)"] < 0.3 * stderrs["plain"]


if __name__ == "__main__":
    print(build_t5_table()[0].render())

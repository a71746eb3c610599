"""T1 — Accuracy: every engine vs every closed form it shares a contract
with (the evaluation's correctness table).

Paper-shape claim: all engines agree with the analytic baselines to within
MC error / discretization error; no engine is biased.
"""

from __future__ import annotations

from repro.analytic import (
    bs_price,
    geometric_basket_price,
    margrabe_price,
    rainbow_two_asset_price,
)
from repro.lattice import beg_price, binomial_price
from repro.market import MultiAssetGBM
from repro.mc import MonteCarloEngine, QMCSobol
from repro.payoffs import Call, CallOnMax, ExchangeOption, GeometricBasketCall
from repro.pde import adi_price, fd_price
from repro.utils import Table
from repro.utils.numerics import relative_error
from repro.workloads import rainbow_workload


def build_t1_table() -> tuple[Table, list[float]]:
    """Price four contracts with all applicable engines; returns the table
    and the list of relative errors."""
    table = Table(
        ["contract", "engine", "price", "exact", "rel err"],
        title="T1 — accuracy vs closed forms",
        floatfmt=".6g",
    )
    rel_errors: list[float] = []

    def add(contract, engine, price, exact):
        err = relative_error(price, exact)
        rel_errors.append(err)
        table.add_row([contract, engine, price, exact, err])

    m1 = MultiAssetGBM.single(100, 0.2, 0.05)
    exact = bs_price(100, 100, 0.2, 0.05, 1.0)
    add("BS call d=1", "mc-qmc",
        MonteCarloEngine(65_536, technique=QMCSobol(8), seed=1)
        .price(m1, Call(100.0), 1.0).price, exact)
    add("BS call d=1", "lattice",
        binomial_price(100, Call(100.0), 0.2, 0.05, 1.0, 1000).price, exact)
    add("BS call d=1", "pde",
        fd_price(100, Call(100.0), 0.2, 0.05, 1.0, n_space=400, n_time=400).price,
        exact)

    w = rainbow_workload()
    exact = margrabe_price(100, 95, 0.2, 0.3, 0.4, 1.0)
    add("Margrabe d=2", "mc",
        MonteCarloEngine(400_000, seed=2).price(w.model, ExchangeOption(), 1.0).price,
        exact)
    add("Margrabe d=2", "lattice",
        beg_price(w.model, ExchangeOption(), 1.0, 250).price, exact)
    add("Margrabe d=2", "pde",
        adi_price(w.model, ExchangeOption(), 1.0, n_space=200, n_time=100).price,
        exact)

    exact = rainbow_two_asset_price(100, 95, 100, 0.2, 0.3, 0.4, 0.05, 1.0,
                                    kind="call-on-max")
    add("Stulz max-call d=2", "mc",
        MonteCarloEngine(400_000, seed=3).price(w.model, CallOnMax(100.0), 1.0).price,
        exact)
    add("Stulz max-call d=2", "lattice",
        beg_price(w.model, CallOnMax(100.0), 1.0, 250).price, exact)
    add("Stulz max-call d=2", "pde",
        adi_price(w.model, CallOnMax(100.0), 1.0, n_space=200, n_time=100).price,
        exact)

    m3 = MultiAssetGBM.equicorrelated(3, 100, 0.25, 0.05, 0.3)
    w3 = [1 / 3] * 3
    exact = geometric_basket_price(m3, w3, 100.0, 1.0)
    add("geom basket d=3", "mc-qmc",
        MonteCarloEngine(65_536, technique=QMCSobol(8), seed=4)
        .price(m3, GeometricBasketCall(w3, 100.0), 1.0).price, exact)
    add("geom basket d=3", "lattice",
        beg_price(m3, GeometricBasketCall(w3, 100.0), 1.0, 60).price, exact)
    return table, rel_errors


def test_t1_accuracy_table(benchmark, show):
    m4 = MultiAssetGBM.equicorrelated(4, 100, 0.25, 0.05, 0.3)
    payoff = GeometricBasketCall([0.25] * 4, 100.0)
    eng = MonteCarloEngine(50_000, seed=1)
    # Representative kernel: one multidimensional MC pricing call.
    benchmark(lambda: eng.price(m4, payoff, 1.0))
    table, rel_errors = build_t1_table()
    show(table.render())
    assert max(rel_errors) < 0.01, "some engine deviates >1% from closed form"


if __name__ == "__main__":
    print(build_t1_table()[0].render())

"""F10 — Contract-level parallelism: load-balancing a heterogeneous book.

Shape claims (the classical list-scheduling story):
* on a cost-heterogeneous book, LPT ≤ cyclic/block makespan, within
  Graham's 4/3 bound of the lower bound;
* on a homogeneous book all schedules tie;
* prices never depend on the schedule or on P.
"""

from __future__ import annotations

import numpy as np

from repro.engine import PortfolioPricer
from repro.utils import Table
from repro.workloads import basket_workload

#: Dimensions drawn to make contract costs span ~8×.
BOOK_DIMS = (1, 1, 8, 2, 8, 1, 4, 2, 8, 4, 1, 2, 4, 8, 1, 1)
PS = (1, 2, 4, 8)
N_PATHS = 20_000


def build_f10_table():
    book = [basket_workload(d) for d in BOOK_DIMS]
    table = Table(
        ["P"] + [f"{s} T [s]" for s in ("block", "cyclic", "lpt")]
        + ["lpt imbalance"],
        title=f"F10 — portfolio makespan by schedule ({len(book)} contracts, "
              f"dims {min(BOOK_DIMS)}–{max(BOOK_DIMS)})",
        floatfmt=".4g",
    )
    data: dict[int, dict[str, float]] = {}
    for p in PS:
        row: dict[str, float] = {}
        for sched in ("block", "cyclic", "lpt"):
            run = PortfolioPricer(N_PATHS, schedule=sched, seed=1).run(book, p)
            row[sched] = run.sim_time
            if sched == "lpt":
                row["imbalance"] = run.imbalance
        data[p] = row
        table.add_row([p, row["block"], row["cyclic"], row["lpt"],
                       row["imbalance"]])
    return table, data


def test_f10_load_balance(benchmark, show):
    book = [basket_workload(d) for d in BOOK_DIMS]
    pricer = PortfolioPricer(N_PATHS, schedule="lpt", seed=1)
    benchmark(lambda: pricer.run(book, 4))
    table, data = build_f10_table()
    show(table.render())
    for p in PS[1:]:
        assert data[p]["lpt"] <= data[p]["block"] + 1e-12
        assert data[p]["lpt"] <= data[p]["cyclic"] + 1e-12
    # LPT keeps imbalance small even at P=8 on 16 contracts.
    assert data[8]["imbalance"] < 0.5
    # Scheduling quality matters: at P=4 the worst naive schedule is
    # measurably slower than LPT on this book.
    worst = max(data[4]["block"], data[4]["cyclic"])
    assert worst > 1.1 * data[4]["lpt"]


if __name__ == "__main__":
    print(build_f10_table()[0].render())

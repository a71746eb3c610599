"""F9 — Reality check: real thread/process backends vs the simulated curve.

This experiment documents the central substitution of the reproduction
(DESIGN.md): the simulated machine produces the paper-era speedup curves
deterministically, while *wall-clock* speedup depends on the host's core
count and on the runner's load, so it can carry no curve beyond the
host's vCPUs. Past P = vCPUs the real backends only queue ranks. The
wall-clock numbers are reported but only weakly asserted (no CI gate on
a shared runner's wall clock); the simulated numbers carry the claims,
and the end-to-end benchmark's ``scaling_mc`` workload is where the
P = 2 wall-clock speedup is measured.
"""

from __future__ import annotations

import os

from repro.engine import ParallelMCPricer
from repro.parallel import ProcessBackend, SerialBackend, ThreadBackend
from repro.utils import Table
from repro.workloads import basket_workload

N = 100_000
PS = (1, 2, 4)


def build_f9_table():
    w = basket_workload(4)
    table = Table(
        ["backend", "P", "wall T [s]", "simulated T [s]", "price"],
        title=f"F9 — wall-clock vs simulated time (host cores: {os.cpu_count()})",
        floatfmt=".4g",
    )
    data = {}
    for backend in (SerialBackend(), ThreadBackend(4), ProcessBackend(2)):
        pricer = ParallelMCPricer(N, seed=1, backend=backend)
        rows = []
        for p in PS:
            r = pricer.price(w.model, w.payoff, w.expiry, p)
            rows.append(r)
            table.add_row([backend.name, p, r.wall_time, r.sim_time, r.price])
        data[backend.name] = rows
        backend.close()
    return table, data


def test_f9_real_backends(benchmark, show):
    w = basket_workload(4)
    pricer = ParallelMCPricer(N, seed=1, backend=SerialBackend())
    benchmark(lambda: pricer.price(w.model, w.payoff, w.expiry, 4))
    table, data = build_f9_table()
    show(table.render())
    # The estimator is backend-invariant.
    for p_idx in range(len(PS)):
        prices = {name: rows[p_idx].price for name, rows in data.items()}
        assert len(set(prices.values())) == 1, prices
    # The simulated curve scales regardless of the host hardware.
    for rows in data.values():
        assert rows[0].sim_time / rows[-1].sim_time > 3.0
    # Wall-clock numbers exist and are positive — no claim beyond that on a
    # shared CI runner (see module docstring).
    for rows in data.values():
        assert all(r.wall_time > 0 for r in rows)


if __name__ == "__main__":
    print(build_f9_table()[0].render())

"""T3 — Lattice execution times across dimensions (the 2^d·(n+1)^d blow-up).

Paper-shape claim: at fixed step count, per-dimension cost explodes
exponentially; parallelism cannot rescue the d=3 lattice the way it
rescues MC (compare T2).
"""

from __future__ import annotations

from repro.engine import ParallelLatticePricer
from repro.market import MultiAssetGBM
from repro.payoffs import Call, CallOnMax, GeometricBasketCall
from repro.utils import Table

PS = (1, 4, 16)
#: steps per dimension chosen so every case is tractable.
CASES = {1: 512, 2: 128, 3: 40}


def _workload(d: int):
    model = MultiAssetGBM.equicorrelated(d, 100.0, 0.25, 0.05, 0.3 if d > 1 else 0.0)
    if d == 1:
        return model, Call(100.0)
    if d == 2:
        return model, CallOnMax(100.0)
    return model, GeometricBasketCall([1.0 / d] * d, 100.0)


def build_t3_table() -> tuple[Table, dict]:
    table = Table(
        ["d", "steps", "nodes"] + [f"T(P={p}) [s]" for p in PS],
        title="T3 — BEG lattice simulated times across dimensions",
        floatfmt=".4g",
    )
    data: dict[int, list[float]] = {}
    for d, steps in CASES.items():
        model, payoff = _workload(d)
        pricer = ParallelLatticePricer(steps)
        row = [pricer.price(model, payoff, 1.0, p) for p in PS]
        nodes = row[0].meta["nodes"]
        data[d] = [r.sim_time for r in row]
        table.add_row([d, steps, nodes] + data[d])
    return table, data


def test_t3_lattice_times(benchmark, show):
    model, payoff = _workload(2)
    pricer = ParallelLatticePricer(CASES[2])
    benchmark(lambda: pricer.price(model, payoff, 1.0, 4))
    table, data = build_t3_table()
    show(table.render())
    # The 1-D binomial is a historically documented parallel *loser* on a
    # 50µs-latency machine: each level holds ≤ n nodes (microseconds of
    # work) but pays a fixed halo latency, so P>1 is slower than serial.
    assert data[1][-1] > data[1][0], "1-D lattice should NOT profit here"
    # The d≥2 lattices carry (t+1)^{d-1}-sized planes per level and do profit.
    for d in (2, 3):
        assert data[d][0] > data[d][-1], f"d={d}: parallel should win"


if __name__ == "__main__":
    print(build_t3_table()[0].render())

"""F12 — Scaling of the two risk-desk workloads: American MC (parallel
LSM) and hedge parameters (parallel CRN Greeks).

Shape claims:
* parallel LSM's speedup sits *between* plain MC (embarrassing) and the
  lattice (level-synchronous): one O(k²) allreduce per exercise date;
* more exercise dates ⇒ lower LSM efficiency at fixed P (more allreduces
  per unit of path work);
* the Greeks sweep scales like pricing (communication stays O(d) while
  compute multiplies by the 1+4d bumped models).
"""

from __future__ import annotations

from repro.engine import (
    ParallelLatticePricer,
    ParallelLSMPricer,
    ParallelMCGreeks,
    ParallelMCPricer,
)
from repro.market import MultiAssetGBM
from repro.payoffs import BasketCall, Put
from repro.perf import ScalingSeries
from repro.utils import Table
from repro.workloads import basket_workload, rainbow_workload

PS = (1, 2, 4, 8, 16, 32)


def build_f12_table():
    m1 = MultiAssetGBM.single(100.0, 0.2, 0.05)
    mc_w = basket_workload(4)
    lat_w = rainbow_workload()

    mc = ScalingSeries.from_results(
        ParallelMCPricer(100_000, seed=1).sweep(mc_w.model, mc_w.payoff,
                                                mc_w.expiry, PS)
    )
    lsm = ScalingSeries.from_results(
        ParallelLSMPricer(100_000, 50, seed=1).sweep(m1, Put(100.0), 1.0, PS)
    )
    lat = ScalingSeries.from_results(
        ParallelLatticePricer(100).sweep(lat_w.model, lat_w.payoff,
                                         lat_w.expiry, PS)
    )
    greeks_pricer = ParallelMCGreeks(50_000, seed=1)
    greeks_times = [
        greeks_pricer.compute(mc_w.model, BasketCall([0.25] * 4, 100.0),
                              1.0, p).run.sim_time
        for p in PS
    ]
    greeks = ScalingSeries(ps=PS, times=tuple(greeks_times))

    table = Table(
        ["P", "S(P) MC", "S(P) greeks", "S(P) LSM", "S(P) lattice"],
        title="F12 — speedup of the risk-desk workloads",
        floatfmt=".4g",
    )
    for i, p in enumerate(PS):
        table.add_row([p, float(mc.speedups[i]), float(greeks.speedups[i]),
                       float(lsm.speedups[i]), float(lat.speedups[i])])
    return table, mc, greeks, lsm, lat


def test_f12_lsm_greeks(benchmark, show):
    m1 = MultiAssetGBM.single(100.0, 0.2, 0.05)
    pricer = ParallelLSMPricer(50_000, 25, seed=1)
    benchmark(lambda: pricer.price(m1, Put(100.0), 1.0, 8))
    table, mc, greeks, lsm, lat = build_f12_table()
    show(table.render())
    # MC and the Greeks sweep are both near-linear; the Greeks sweep can
    # even edge out plain pricing (17× the compute per rank amortizes the
    # one reduction better). LSM sits in between; the lattice trails.
    assert mc.speedups[-1] > 32 * 0.8
    assert greeks.speedups[-1] > 32 * 0.8
    assert greeks.speedups[-1] > lsm.speedups[-1]
    assert lsm.speedups[-1] > lat.speedups[-1]
    # LSM sits strictly between the extremes.
    assert 2 * lat.speedups[-1] < lsm.speedups[-1] < 0.9 * mc.speedups[-1]

    # More exercise dates ⇒ lower LSM efficiency at P=16.
    few = ParallelLSMPricer(100_000, 10, seed=1).sweep(m1, Put(100.0), 1.0,
                                                       (1, 16))
    many = ParallelLSMPricer(100_000, 100, seed=1).sweep(m1, Put(100.0), 1.0,
                                                         (1, 16))
    eff_few = few[0].sim_time / few[1].sim_time / 16
    eff_many = many[0].sim_time / many[1].sim_time / 16
    show(f"LSM efficiency at P=16: {eff_few:.3f} (10 dates) vs "
         f"{eff_many:.3f} (100 dates)")
    # Communication grows strictly with the date count; efficiency dips
    # only slightly because the per-path work grows with it too.
    assert many[1].comm_time > few[1].comm_time
    assert eff_many <= eff_few + 1e-6


if __name__ == "__main__":
    print(build_f12_table()[0].render())

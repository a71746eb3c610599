"""F7 — Granularity and machine ablation: how network quality and
reduction topology shape the curves.

Paper-shape claims:
* the latency-bound lattice is far more sensitive to α than MC;
* tree reduction beats linear reduction at scale for MC (the DESIGN.md
  reduction-topology ablation);
* on the slow network the lattice's efficiency collapses while MC merely
  dips.
"""

from __future__ import annotations

from repro.engine import ParallelLatticePricer, ParallelMCPricer
from repro.utils import Table
from repro.workloads import basket_workload, default_machine_specs, rainbow_workload

P = 16


def build_f7_table():
    specs = default_machine_specs()
    mc_w = basket_workload(4)
    lat_w = rainbow_workload()
    table = Table(
        ["machine", "MC E(16)", "lattice E(16)", "MC tree T", "MC linear T"],
        title=f"F7 — efficiency at P={P} across machine variants + topology ablation",
        floatfmt=".4g",
    )
    rows = {}
    for name, spec in specs.items():
        mc = ParallelMCPricer(100_000, seed=1, spec=spec)
        mc_t1 = mc.price(mc_w.model, mc_w.payoff, mc_w.expiry, 1).sim_time
        mc_tp = mc.price(mc_w.model, mc_w.payoff, mc_w.expiry, P).sim_time
        lat = ParallelLatticePricer(200, spec=spec)
        lat_t1 = lat.price(lat_w.model, lat_w.payoff, lat_w.expiry, 1).sim_time
        lat_tp = lat.price(lat_w.model, lat_w.payoff, lat_w.expiry, P).sim_time
        mc_lin = ParallelMCPricer(100_000, seed=1, spec=spec,
                                  reduce_topology="linear")
        mc_lin_tp = mc_lin.price(mc_w.model, mc_w.payoff, mc_w.expiry, P).sim_time
        rows[name] = {
            "mc_eff": mc_t1 / (P * mc_tp),
            "lat_eff": lat_t1 / (P * lat_tp),
            "mc_tree_t": mc_tp,
            "mc_linear_t": mc_lin_tp,
        }
        table.add_row([name, rows[name]["mc_eff"], rows[name]["lat_eff"],
                       mc_tp, mc_lin_tp])
    return table, rows


def test_f7_granularity(benchmark, show):
    w = basket_workload(4)
    pricer = ParallelMCPricer(100_000, seed=1)
    benchmark(lambda: pricer.price(w.model, w.payoff, w.expiry, P))
    table, rows = build_f7_table()
    show(table.render())
    base, slow = rows["baseline"], rows["slow-network"]
    fast = rows["fast-network"]
    # Network quality ordering holds for both engines.
    assert fast["lat_eff"] > base["lat_eff"] > slow["lat_eff"]
    assert fast["mc_eff"] >= base["mc_eff"] >= slow["mc_eff"]
    # Lattice suffers proportionally more on the slow network than MC.
    lat_drop = base["lat_eff"] / slow["lat_eff"]
    mc_drop = base["mc_eff"] / slow["mc_eff"]
    assert lat_drop > mc_drop
    # Tree reduce never slower than linear; strictly better on slow network.
    for name, r in rows.items():
        assert r["mc_tree_t"] <= r["mc_linear_t"] + 1e-15, name
    assert slow["mc_tree_t"] < slow["mc_linear_t"]


if __name__ == "__main__":
    print(build_f7_table()[0].render())

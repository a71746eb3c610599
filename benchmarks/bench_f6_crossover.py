"""F6 — The curse-of-dimensionality crossover: lattice vs Monte Carlo cost
as dimension grows, at (roughly) matched accuracy.

Paper-shape claim: the lattice wins at d=1, stays competitive at d=2, and
is hopeless by d≥3–4: its cost grows exponentially (2^d branches ×
(n+1)^d nodes) while MC cost grows linearly in d. This crossover is the
reason the paper's multidimensional pricer leans on parallel Monte Carlo.
"""

from __future__ import annotations

from repro.engine import WorkModel
from repro.market import MultiAssetGBM
from repro.mc import MonteCarloEngine
from repro.lattice import beg_price
from repro.payoffs import GeometricBasketCall
from repro.utils import Table
from repro.analytic import geometric_basket_price

#: Lattice steps giving ≈1-cent accuracy at each dimension (empirical).
LATTICE_STEPS = {1: 250, 2: 120, 3: 40}
MC_PATHS = 200_000  # ≈1-cent stderr on these contracts
WM = WorkModel()


def _workload(d: int):
    model = MultiAssetGBM.equicorrelated(d, 100.0, 0.25, 0.05,
                                         0.3 if d > 1 else 0.0)
    return model, GeometricBasketCall([1.0 / d] * d, 100.0)


def build_f6_table():
    table = Table(
        ["d", "lattice steps", "lattice work", "mc work", "lattice/mc",
         "lattice err", "mc err"],
        title="F6 — cost vs dimension at matched ~1-cent accuracy (work units)",
        floatfmt=".3g",
    )
    ratios = {}
    for d in (1, 2, 3):
        model, payoff = _workload(d)
        exact = geometric_basket_price(model, [1.0 / d] * d, 100.0, 1.0)
        steps = LATTICE_STEPS[d]
        lat = beg_price(model, payoff, 1.0, steps)
        lat_work = lat.nodes * WM.lattice_node_units(d)
        mc = MonteCarloEngine(MC_PATHS, seed=1).price(model, payoff, 1.0)
        mc_work = MC_PATHS * WM.mc_path_units(d, None)
        ratios[d] = lat_work / mc_work
        table.add_row([d, steps, lat_work, mc_work, ratios[d],
                       abs(lat.price - exact), abs(mc.price - exact)])
    # Extrapolated lattice work for d=4..6 at 40 steps (memory-infeasible to run).
    for d in (4, 5, 6):
        nodes = sum((t + 1) ** d for t in range(41))
        lat_work = nodes * WM.lattice_node_units(d)
        mc_work = MC_PATHS * WM.mc_path_units(d, None)
        ratios[d] = lat_work / mc_work
        table.add_row([d, 40, lat_work, mc_work, ratios[d], float("nan"),
                       float("nan")])
    return table, ratios


def test_f6_crossover(benchmark, show):
    model, payoff = _workload(2)
    benchmark(lambda: beg_price(model, payoff, 1.0, LATTICE_STEPS[2]))
    table, ratios = build_f6_table()
    show(table.render())
    # Lattice cheaper at d=1, MC decisively cheaper by d=3+.
    assert ratios[1] < 1.0
    assert ratios[3] > ratios[2] > ratios[1]
    assert ratios[6] > 100.0


if __name__ == "__main__":
    print(build_f6_table()[0].render())

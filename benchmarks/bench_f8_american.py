"""F8 — American/Bermudan exercise: parallel lattice speedup with early
exercise, and LSMC as the MC-side alternative.

Paper-shape claims: adding early exercise increases per-level work
(intrinsic evaluation) and therefore *improves* the lattice's parallel
efficiency slightly (better compute/communication ratio); the LSM price
agrees with the lattice American value.
"""

from __future__ import annotations

from repro.engine import ParallelLatticePricer
from repro.market import MultiAssetGBM, constant_correlation
from repro.mc import lsm_price
from repro.payoffs import CallOnMax
from repro.perf import ScalingSeries
from repro.utils import Table

PS = (1, 2, 4, 8, 16, 32)
MODEL = MultiAssetGBM(
    [100.0, 100.0], [0.2, 0.2], 0.05, dividends=[0.1, 0.1],
    correlation=constant_correlation(2, 0.0),
)
PAYOFF = CallOnMax(100.0)
STEPS = 120


def build_f8_table():
    eu = ScalingSeries.from_results(
        ParallelLatticePricer(STEPS).sweep(MODEL, PAYOFF, 1.0, PS)
    )
    am = ScalingSeries.from_results(
        ParallelLatticePricer(STEPS, american=True).sweep(MODEL, PAYOFF, 1.0, PS)
    )
    table = Table(
        ["P", "S(P) european", "S(P) american", "E european", "E american"],
        title="F8 — lattice speedup with and without early exercise (2-asset max-call)",
        floatfmt=".4g",
    )
    for i, p in enumerate(PS):
        table.add_row([p, float(eu.speedups[i]), float(am.speedups[i]),
                       float(eu.efficiencies[i]), float(am.efficiencies[i])])
    return table, eu, am


def test_f8_american(benchmark, show):
    pricer = ParallelLatticePricer(STEPS, american=True)
    benchmark(lambda: pricer.price(MODEL, PAYOFF, 1.0, 8))
    table, eu, am = build_f8_table()
    show(table.render())
    # Early exercise adds compute per level ⇒ ≥ efficiency at high P.
    assert am.efficiencies[-1] >= eu.efficiencies[-1] - 1e-9

    # Cross-validate the American value with LSMC (Bermudan lower bound).
    tree = ParallelLatticePricer(STEPS, american=True).price(MODEL, PAYOFF, 1.0, 1)
    lsm = lsm_price(MODEL, PAYOFF, 1.0, 12, 60_000, seed=1)
    show(f"lattice american: {tree.price:.4f}   LSMC (12 dates): "
         f"{lsm.price:.4f} ± {lsm.stderr:.4f}")
    assert 0.9 * tree.price < lsm.price < 1.03 * tree.price


if __name__ == "__main__":
    print(build_f8_table()[0].render())

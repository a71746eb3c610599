"""Cross-engine integration: every engine family prices the same contracts
to the same values, sequentially and in parallel — the end-to-end claim of
the reproduction."""

import numpy as np
import pytest

from repro.analytic import bs_price, margrabe_price, rainbow_two_asset_price
from repro.engine import ParallelLatticePricer, ParallelMCPricer, ParallelPDEPricer
from repro.lattice import beg_price, binomial_price
from repro.mc import MonteCarloEngine, QMCSobol, lsm_price
from repro.payoffs import Call, CallOnMax, ExchangeOption, Put
from repro.pde import adi_price, fd_price
from repro.perf import ScalingExperiment, ScalingSeries
from repro.workloads import rainbow_workload


class TestThreeEnginesOneContract:
    """The T1 accuracy claim: MC, lattice and PDE all converge to the same
    closed-form value on shared contracts."""

    def test_vanilla_call_all_engines(self, model_1d):
        exact = bs_price(100, 100, 0.2, 0.05, 1.0)
        mc = MonteCarloEngine(200_000, technique=QMCSobol(8), seed=1).price(
            model_1d, Call(100.0), 1.0
        ).price
        tree = binomial_price(100, Call(100.0), 0.2, 0.05, 1.0, 1000).price
        pde = fd_price(100, Call(100.0), 0.2, 0.05, 1.0, n_space=400,
                       n_time=400).price
        for name, price in (("mc", mc), ("lattice", tree), ("pde", pde)):
            assert price == pytest.approx(exact, abs=0.02), name

    def test_two_asset_rainbow_all_engines(self, model_2d):
        exact = rainbow_two_asset_price(100, 95, 100, 0.2, 0.3, 0.4, 0.05, 1.0,
                                        kind="call-on-max")
        mc = MonteCarloEngine(400_000, seed=2).price(model_2d, CallOnMax(100.0),
                                                     1.0)
        tree = beg_price(model_2d, CallOnMax(100.0), 1.0, 250).price
        pde = adi_price(model_2d, CallOnMax(100.0), 1.0, n_space=200,
                        n_time=100).price
        assert mc.within(exact)
        assert tree == pytest.approx(exact, abs=0.04)
        assert pde == pytest.approx(exact, abs=0.04)

    def test_exchange_option_all_engines(self, model_2d):
        exact = margrabe_price(100, 95, 0.2, 0.3, 0.4, 1.0)
        mc = MonteCarloEngine(400_000, seed=3).price(model_2d, ExchangeOption(), 1.0)
        tree = beg_price(model_2d, ExchangeOption(), 1.0, 250).price
        pde = adi_price(model_2d, ExchangeOption(), 1.0, n_space=200,
                        n_time=100).price
        assert mc.within(exact)
        assert tree == pytest.approx(exact, abs=0.04)
        assert pde == pytest.approx(exact, abs=0.04)

    def test_american_put_three_ways(self, model_1d):
        tree = binomial_price(100, Put(100.0), 0.2, 0.05, 1.0, 2000,
                              american=True).price
        pde = fd_price(100, Put(100.0), 0.2, 0.05, 1.0, american=True,
                       n_space=400, n_time=200).price
        lsm = lsm_price(model_1d, Put(100.0), 1.0, 50, 100_000, seed=4)
        assert pde == pytest.approx(tree, abs=0.01)
        assert lsm.price == pytest.approx(tree, abs=6 * lsm.stderr + 0.04)


class TestParallelEqualsSequentialEverywhere:
    """Parallelization must never change the numbers — only T(P)."""

    def test_all_three_parallel_engines_on_rainbow(self):
        w = rainbow_workload()
        # Lattice: bit-identical.
        seq_tree = beg_price(w.model, w.payoff, w.expiry, 80).price
        par_tree = ParallelLatticePricer(80).price(w.model, w.payoff, w.expiry, 8)
        assert par_tree.price == seq_tree
        # PDE: bit-identical.
        seq_pde = adi_price(w.model, w.payoff, w.expiry, n_space=96,
                            n_time=24).price
        par_pde = ParallelPDEPricer(n_space=96, n_time=24).price(
            w.model, w.payoff, w.expiry, 8
        )
        assert par_pde.price == pytest.approx(seq_pde, abs=1e-12)
        # MC: same estimator across P with QMC point-set splitting.
        pricer = ParallelMCPricer(32_000, technique=QMCSobol(8), seed=5)
        p1 = pricer.price(w.model, w.payoff, w.expiry, 1)
        p8 = pricer.price(w.model, w.payoff, w.expiry, 8)
        assert p8.price == pytest.approx(p1.price, rel=1e-12)

    def test_paper_shape_mc_beats_lattice_in_scaling(self):
        """The headline comparison: MC speedup ≫ lattice speedup at P=32
        on comparable serial-time workloads."""
        w = rainbow_workload()
        mc = ParallelMCPricer(100_000, seed=1)
        lat = ParallelLatticePricer(100)
        mc_series = ScalingSeries.from_results(
            mc.sweep(w.model, w.payoff, w.expiry, [1, 32])
        )
        lat_series = ScalingSeries.from_results(
            lat.sweep(w.model, w.payoff, w.expiry, [1, 32])
        )
        assert mc_series.speedups[-1] > 3 * lat_series.speedups[-1]

    def test_dimension_crossover_lattice_blows_up(self):
        """F6 shape: lattice work grows exponentially in d at fixed accuracy,
        MC only linearly."""
        from repro.engine import WorkModel

        wm = WorkModel()
        lattice_work = []
        mc_work = []
        for d in (1, 2, 3):
            steps = 40
            nodes = sum((t + 1) ** d for t in range(steps + 1))
            lattice_work.append(nodes * wm.lattice_node_units(d))
            mc_work.append(100_000 * wm.mc_path_units(d, None))
        assert lattice_work[2] / lattice_work[0] > 100
        assert mc_work[2] / mc_work[0] < 4


class TestScalingExperimentHarness:
    def test_report_runs_end_to_end(self, model_4d):
        from repro.payoffs import BasketCall

        exp = ScalingExperiment(
            ParallelMCPricer(20_000, seed=1),
            model_4d,
            BasketCall([0.25] * 4, 100.0),
            1.0,
            label="integration",
        )
        out = exp.report([1, 2, 4])
        assert "integration" in out
        assert "Amdahl fit" in out
        assert "Karp-Flatt" in out

    def test_empty_plist_rejected(self, model_1d):
        from repro.errors import ValidationError

        exp = ScalingExperiment(ParallelMCPricer(1000), model_1d, Call(100.0), 1.0)
        with pytest.raises(ValidationError):
            exp.run([])


class TestPublicApi:
    def test_top_level_imports(self):
        import importlib
        import pkgutil

        import repro

        packages = [repro] + [
            importlib.import_module(f"repro.{m.name}")
            for m in pkgutil.iter_modules(repro.__path__)
            if m.ispkg
        ]
        for pkg in packages:
            for name in pkg.__all__:
                assert hasattr(pkg, name), f"{pkg.__name__}.{name}"

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_quickstart_snippet_runs(self):
        from repro import BasketCall, MultiAssetGBM, ParallelMCPricer

        model = MultiAssetGBM.equicorrelated(4, spot=100, vol=0.25, rate=0.05,
                                             rho=0.3)
        payoff = BasketCall([0.25] * 4, strike=100.0)
        pricer = ParallelMCPricer(n_paths=20_000, seed=42)
        prices = [pricer.price(model, payoff, expiry=1.0, p=p).price
                  for p in (1, 2, 4)]
        assert all(np.isfinite(p) and p > 0 for p in prices)

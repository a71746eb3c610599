"""Parallel lattice pricer: bit-identity with the sequential sweep and the
latency-bound scaling shape."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import ParallelLatticePricer
from repro.engine.runner import run_strip
from repro.lattice import BEGLattice, beg_price
from repro.market import MultiAssetGBM, constant_correlation
from repro.parallel import MachineSpec
from repro.payoffs import Call, CallOnMax, Put


class TestBitIdentity:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 16, 64])
    def test_2d_matches_sequential_for_any_p(self, model_2d, p):
        seq = beg_price(model_2d, CallOnMax(100.0), 1.0, 60).price
        par = ParallelLatticePricer(60).price(model_2d, CallOnMax(100.0), 1.0, p)
        assert par.price == seq  # bit-identical, not approx

    @pytest.mark.parametrize("p", [1, 3, 7])
    def test_1d_matches_sequential(self, model_1d, p):
        seq = beg_price(model_1d, Call(100.0), 1.0, 200).price
        par = ParallelLatticePricer(200).price(model_1d, Call(100.0), 1.0, p)
        assert par.price == seq

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_3d_matches_sequential(self, p):
        model = MultiAssetGBM.equicorrelated(3, 100, 0.25, 0.05, 0.3)
        from repro.payoffs import GeometricBasketCall

        payoff = GeometricBasketCall([1 / 3] * 3, 100.0)
        seq = beg_price(model, payoff, 1.0, 25).price
        par = ParallelLatticePricer(25).price(model, payoff, 1.0, p)
        assert par.price == seq

    @given(st.integers(1, 12))
    def test_american_matches_sequential(self, p):
        model = MultiAssetGBM(
            [100.0, 100.0], [0.2, 0.2], 0.05, dividends=[0.1, 0.1],
            correlation=constant_correlation(2, 0.0),
        )
        seq = beg_price(model, CallOnMax(100.0), 1.0, 40, american=True).price
        par = ParallelLatticePricer(40, american=True).price(
            model, CallOnMax(100.0), 1.0, p
        )
        assert par.price == seq

    def test_more_ranks_than_rows_is_fine(self, model_1d):
        # Near the root, levels have fewer rows than ranks: extra ranks idle.
        par = ParallelLatticePricer(10).price(model_1d, Put(100.0), 1.0, 64)
        seq = beg_price(model_1d, Put(100.0), 1.0, 10).price
        assert par.price == seq


class TestOneKernelCallPerLevel:
    """The slabs are charged, not executed: each level is one ``step``
    call over the whole (stacked) tensor, whatever ``p`` is."""

    @staticmethod
    def _spy(monkeypatch):
        calls = {"step": 0, "step_rows": 0}
        for name in calls:
            real = getattr(BEGLattice, name)

            def counted(self, *args, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(BEGLattice, name, counted)
        return calls

    @pytest.mark.parametrize("american", [False, True])
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 64])
    def test_step_once_per_level_and_step_rows_never(self, monkeypatch,
                                                     model_2d, p, american):
        calls = self._spy(monkeypatch)
        ParallelLatticePricer(24, american=american).price(
            model_2d, CallOnMax(100.0), 1.0, p)
        assert calls == {"step": 24, "step_rows": 0}

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_a_strip_is_still_one_call_per_level(self, monkeypatch, model_2d,
                                                 p):
        calls = self._spy(monkeypatch)
        payoffs = [CallOnMax(k) for k in (90.0, 100.0, 110.0)]
        run_strip(ParallelLatticePricer(16), model_2d, payoffs, 1.0, p)
        assert calls == {"step": 16, "step_rows": 0}


class TestScalingShape:
    def test_speedup_saturates(self, model_2d):
        pricer = ParallelLatticePricer(120)
        results = pricer.sweep(model_2d, CallOnMax(100.0), 1.0, [1, 2, 4, 8, 16, 32])
        t1 = results[0].sim_time
        speedups = [t1 / r.sim_time for r in results]
        # Monotone but saturating: far below linear at P=32.
        assert all(b >= a - 1e-12 for a, b in zip(speedups, speedups[1:]))
        assert speedups[-1] < 32 * 0.5

    def test_larger_problems_scale_better(self, model_2d):
        # Efficiency at P=8 grows with step count (isoefficiency behaviour):
        # per-level halo latency amortizes over more per-level work.
        effs = []
        for steps in (32, 128, 512):
            pricer = ParallelLatticePricer(steps)
            rs = pricer.sweep(model_2d, CallOnMax(100.0), 1.0, [1, 8])
            effs.append(rs[0].sim_time / rs[1].sim_time / 8)
        assert effs[0] < effs[1] < effs[2]

    def test_comm_time_scales_with_levels(self, model_2d):
        r_small = ParallelLatticePricer(40).price(model_2d, CallOnMax(100.0), 1.0, 4)
        r_big = ParallelLatticePricer(160).price(model_2d, CallOnMax(100.0), 1.0, 4)
        assert r_big.comm_time > r_small.comm_time

    def test_american_charges_more_work(self, model_2d):
        eu = ParallelLatticePricer(60).price(model_2d, CallOnMax(100.0), 1.0, 4)
        am = ParallelLatticePricer(60, american=True).price(
            model_2d, CallOnMax(100.0), 1.0, 4
        )
        assert am.compute_time > eu.compute_time

    def test_fast_network_improves_lattice_more_than_mc(self, model_2d):
        # The lattice is latency-bound: shrinking α must shrink T(P) a lot.
        slow = ParallelLatticePricer(120, spec=MachineSpec(alpha=500e-6)).price(
            model_2d, CallOnMax(100.0), 1.0, 8
        )
        fast = ParallelLatticePricer(120, spec=MachineSpec(alpha=5e-6)).price(
            model_2d, CallOnMax(100.0), 1.0, 8
        )
        assert fast.sim_time < 0.5 * slow.sim_time
        assert fast.price == slow.price

    def test_meta_diagnostics(self, model_2d):
        r = ParallelLatticePricer(30).price(model_2d, CallOnMax(100.0), 1.0, 4)
        assert r.engine == "lattice"
        assert r.meta["branching"] == 4
        assert r.meta["nodes"] == sum((t + 1) ** 2 for t in range(31))
        assert r.stderr == 0.0

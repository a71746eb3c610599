"""Parallel ADI pricer: bit-identity with the sequential solver and the
transpose-bound scaling shape."""

import pytest

from repro.engine import ParallelPDEPricer
from repro.errors import ValidationError
from repro.market import MultiAssetGBM, constant_correlation
from repro.parallel import MachineSpec
from repro.payoffs import CallOnMax, ExchangeOption, SpreadCall
from repro.pde import ADISolver, adi_price


class TestBitIdentity:
    @pytest.mark.parametrize("p", [1, 2, 3, 8, 16])
    def test_matches_sequential_for_any_p(self, model_2d, p):
        seq = adi_price(model_2d, SpreadCall(5.0), 1.0, n_space=96, n_time=24).price
        par = ParallelPDEPricer(n_space=96, n_time=24).price(
            model_2d, SpreadCall(5.0), 1.0, p
        )
        assert par.price == pytest.approx(seq, abs=1e-12)

    @pytest.mark.parametrize("p", [1, 4])
    def test_american_matches_sequential(self, p):
        model = MultiAssetGBM(
            [100.0, 100.0], [0.2, 0.2], 0.05, dividends=[0.1, 0.1],
            correlation=constant_correlation(2, 0.0),
        )
        seq = adi_price(model, CallOnMax(100.0), 1.0, n_space=80, n_time=20,
                        american=True).price
        par = ParallelPDEPricer(n_space=80, n_time=20, american=True).price(
            model, CallOnMax(100.0), 1.0, p
        )
        assert par.price == pytest.approx(seq, abs=1e-12)

    def test_exchange_accuracy_preserved(self, model_2d):
        from repro.analytic import margrabe_price

        exact = margrabe_price(100, 95, 0.2, 0.3, 0.4, 1.0)
        par = ParallelPDEPricer(n_space=160, n_time=80).price(
            model_2d, ExchangeOption(), 1.0, 8
        )
        assert par.price == pytest.approx(exact, abs=0.03)


class TestOneSolveCallPerHalfStep:
    """The rank blocks are charged, not executed: each half-step is one
    tridiagonal-solver call over the whole plane, whatever ``p`` is."""

    @pytest.mark.parametrize("american", [False, True])
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 64])
    def test_implicit_x_and_y_once_per_step(self, monkeypatch, model_2d, p,
                                            american):
        calls = {"implicit_x": 0, "implicit_y": 0}
        for name in calls:
            real = getattr(ADISolver, name)

            def counted(self, rhs, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, rhs)

            monkeypatch.setattr(ADISolver, name, counted)
        ParallelPDEPricer(n_space=24, n_time=6, american=american).price(
            model_2d, SpreadCall(5.0), 1.0, p)
        assert calls == {"implicit_x": 6, "implicit_y": 6}


class TestScalingShape:
    def test_speedup_peaks_then_degrades(self, model_2d):
        pricer = ParallelPDEPricer(n_space=128, n_time=16)
        results = pricer.sweep(model_2d, SpreadCall(5.0), 1.0, [1, 2, 4, 8, 16, 64])
        t1 = results[0].sim_time
        speedups = [t1 / r.sim_time for r in results]
        # Rises first...
        assert speedups[1] > 1.2
        # ...but the O(P) all-to-all eventually wins: P=64 worse than peak.
        assert speedups[-1] < max(speedups[:5])

    def test_comm_dominated_by_alltoall_volume(self, model_2d):
        p = 8
        r = ParallelPDEPricer(n_space=96, n_time=10).price(
            model_2d, SpreadCall(5.0), 1.0, p
        )
        # Two all-to-alls per step, each P(P−1) messages, plus a final bcast.
        expected_msgs = 10 * 2 * p * (p - 1) + (p - 1)
        assert r.messages == expected_msgs

    def test_bigger_grid_scales_better(self, model_2d):
        effs = []
        for n_space in (48, 96, 192):
            pricer = ParallelPDEPricer(n_space=n_space, n_time=8)
            rs = pricer.sweep(model_2d, SpreadCall(5.0), 1.0, [1, 8])
            effs.append(rs[0].sim_time / rs[1].sim_time / 8)
        assert effs[0] < effs[2]

    def test_network_sensitivity(self, model_2d):
        slow = ParallelPDEPricer(n_space=96, n_time=8,
                                 spec=MachineSpec(alpha=500e-6, beta=1e-7)).price(
            model_2d, SpreadCall(5.0), 1.0, 8
        )
        fast = ParallelPDEPricer(n_space=96, n_time=8,
                                 spec=MachineSpec(alpha=5e-6, beta=1e-9)).price(
            model_2d, SpreadCall(5.0), 1.0, 8
        )
        assert fast.sim_time < slow.sim_time
        assert fast.price == slow.price


class TestValidation:
    def test_requires_two_asset_model(self, model_1d):
        with pytest.raises(ValidationError):
            ParallelPDEPricer(n_space=40, n_time=4).price(
                model_1d, SpreadCall(5.0), 1.0, 2
            )

    def test_meta(self, model_2d):
        r = ParallelPDEPricer(n_space=40, n_time=4).price(
            model_2d, SpreadCall(5.0), 1.0, 2
        )
        assert r.engine == "pde"
        assert r.meta["n_space"] == 40
        assert r.stderr == 0.0

"""Portfolio task farm: schedule-invariant prices, load-balance ordering."""

import numpy as np
import pytest

from repro.engine import PortfolioPricer
from repro.errors import ValidationError
from repro.workloads import basket_workload, random_portfolio

#: Dims chosen so contract costs are strongly heterogeneous (1×..8×).
MIXED_BOOK_DIMS = (1, 1, 1, 8, 8, 2, 2, 4, 1, 4, 8, 2)


def _mixed_book():
    return [basket_workload(d) for d in MIXED_BOOK_DIMS]


class TestPriceInvariance:
    def test_schedule_never_changes_prices(self):
        book = _mixed_book()
        values = {}
        for sched in ("block", "cyclic", "lpt"):
            run = PortfolioPricer(10_000, schedule=sched, seed=1).run(book, 4)
            values[sched] = tuple(r.price for r in run.results)
        assert values["block"] == values["cyclic"] == values["lpt"]

    def test_p_never_changes_prices(self):
        book = _mixed_book()
        pricer = PortfolioPricer(10_000, schedule="lpt", seed=1)
        run1 = pricer.run(book, 1)
        run8 = pricer.run(book, 8)
        assert tuple(r.price for r in run1.results) == tuple(
            r.price for r in run8.results
        )

    def test_deterministic_in_seed(self):
        book = _mixed_book()
        a = PortfolioPricer(10_000, seed=5).run(book, 2).total_value
        b = PortfolioPricer(10_000, seed=5).run(book, 2).total_value
        c = PortfolioPricer(10_000, seed=6).run(book, 2).total_value
        assert a == b
        assert a != c


class TestScheduling:
    def test_lpt_minimizes_makespan_on_heterogeneous_book(self):
        book = _mixed_book()
        times = {}
        for sched in ("block", "cyclic", "lpt"):
            run = PortfolioPricer(10_000, schedule=sched, seed=1).run(book, 4)
            times[sched] = run.sim_time
        assert times["lpt"] <= times["block"] + 1e-12
        assert times["lpt"] <= times["cyclic"] + 1e-12

    def test_lpt_near_lower_bound(self):
        book = _mixed_book()
        pricer = PortfolioPricer(10_000, schedule="lpt", seed=1)
        run = pricer.run(book, 4)
        costs = run.meta["costs"]
        flop = pricer.spec.flop_time
        lower_bound = max(sum(costs) / 4, max(costs)) * flop
        # Graham's bound: LPT ≤ (4/3 − 1/3p)·OPT ≤ 4/3·lower bound (+comm).
        assert run.sim_time <= lower_bound * (4.0 / 3.0) + 0.01

    def test_homogeneous_book_all_schedules_tie(self):
        book = [basket_workload(4) for _ in range(8)]
        times = [
            PortfolioPricer(10_000, schedule=s, seed=1).run(book, 4).sim_time
            for s in ("block", "cyclic", "lpt")
        ]
        assert max(times) - min(times) < 1e-9

    def test_imbalance_metric(self):
        book = _mixed_book()
        run_lpt = PortfolioPricer(10_000, schedule="lpt", seed=1).run(book, 4)
        run_blk = PortfolioPricer(10_000, schedule="block", seed=1).run(book, 4)
        assert run_lpt.imbalance <= run_blk.imbalance + 1e-12
        assert run_lpt.imbalance >= 0.0

    def test_assignment_covers_all_contracts(self):
        book = _mixed_book()
        run = PortfolioPricer(10_000, schedule="cyclic", seed=1).run(book, 5)
        assert len(run.assignment) == len(book)
        assert set(run.assignment) <= set(range(5))

    def test_single_rank(self):
        book = _mixed_book()[:3]
        run = PortfolioPricer(10_000, seed=1).run(book, 1)
        assert run.imbalance == pytest.approx(0.0)

    def test_more_ranks_than_contracts(self):
        book = _mixed_book()[:2]
        run = PortfolioPricer(10_000, schedule="lpt", seed=1).run(book, 8)
        assert np.isfinite(run.sim_time)


class TestScalingBehaviour:
    def test_speedup_with_p(self):
        book = random_portfolio(16, dim=4, seed=2)
        pricer = PortfolioPricer(20_000, schedule="lpt", seed=1)
        t1 = pricer.run(book, 1).sim_time
        t8 = pricer.run(book, 8).sim_time
        assert t1 / t8 > 5.0

    def test_accuracy_on_random_book(self):
        # Portfolio pricing must agree with pricing each contract alone.
        from repro.mc import MonteCarloEngine

        book = random_portfolio(3, dim=3, seed=4)
        run = PortfolioPricer(50_000, seed=9).run(book, 2)
        for w, res in zip(book, run.results):
            solo = MonteCarloEngine(50_000, seed=99).price(w.model, w.payoff,
                                                           w.expiry)
            assert abs(res.price - solo.price) < 4 * (res.stderr + solo.stderr)


class TestValidation:
    def test_empty_book(self):
        with pytest.raises(ValidationError):
            PortfolioPricer(1000).run([], 2)

    def test_bad_schedule(self):
        with pytest.raises(ValidationError):
            PortfolioPricer(1000, schedule="random")


class TestDynamicSchedule:
    def test_dynamic_balances_without_cost_estimates(self):
        book = _mixed_book()
        dyn = PortfolioPricer(10_000, schedule="dynamic", seed=1).run(book, 4)
        blk = PortfolioPricer(10_000, schedule="block", seed=1).run(book, 4)
        # Self-scheduling balances at least as well as naive block here,
        # despite paying a dispatch latency per contract.
        assert dyn.sim_time <= blk.sim_time + 4 * 50e-6 * len(book)

    def test_dynamic_pays_dispatch_overhead_on_homogeneous_book(self):
        book = [basket_workload(4) for _ in range(8)]
        dyn = PortfolioPricer(10_000, schedule="dynamic", seed=1).run(book, 4)
        lpt = PortfolioPricer(10_000, schedule="lpt", seed=1).run(book, 4)
        # Same balance, but dynamic adds one alpha per contract.
        assert dyn.sim_time > lpt.sim_time
        assert dyn.sim_time == pytest.approx(lpt.sim_time + 2 * 50e-6, rel=0.2)

    def test_dynamic_prices_match_other_schedules(self):
        book = _mixed_book()
        dyn = PortfolioPricer(10_000, schedule="dynamic", seed=1).run(book, 4)
        blk = PortfolioPricer(10_000, schedule="block", seed=1).run(book, 4)
        assert tuple(r.price for r in dyn.results) == tuple(
            r.price for r in blk.results
        )

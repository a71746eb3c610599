"""The execute-stage scheduler: placement moves, prices don't.

Four layers of guarantee, mirroring :mod:`repro.parallel.sched`'s
determinism contract:

* **unit** — static delegates verbatim to ``backend.map``; LPT's dispatch
  order is a stable sort of the estimates; submit/as_completed behave on
  every backend (results, exceptions, interleaving).
* **property (Hypothesis)** — scheduled results are invariant under any
  cost vector (placement never reorders the output); the greedy
  strategies obey the classical list-scheduling bound
  ``makespan ≤ Σ/m + max ≤ 2·OPT``; the virtual steal schedule is a pure
  function of its seed.
* **integration** — the pipeline runner rejects non-static scheduling on
  inline and non-schedulable engines; in virtual time, stealing beats
  static on skewed task sets.
* **acceptance (``-m sched``, the CI scheduler lane)** — bitwise price
  equality against the static path for every schedulable registry engine
  across serial/thread/process backends, with and without fault retries,
  and through the serve layer's ledger.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.market.gbm import MultiAssetGBM
from repro.parallel.backends import (
    BackendError,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.parallel.sched import (
    SCHEDULER_NAMES,
    LPTScheduler,
    SchedStats,
    StaticChunkScheduler,
    WorkStealingScheduler,
    resolve_scheduler,
    simulate_schedule,
)
from repro.payoffs.vanilla import Call
from repro.verify.determinism import float_bits

costs_st = st.lists(
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=40)
workers_st = st.integers(min_value=1, max_value=8)
seed_st = st.integers(min_value=0, max_value=2 ** 16)


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom on {x}")


# ----------------------------------------------------------------------
# Unit: strategies and primitives.
# ----------------------------------------------------------------------


class TestStrategies:
    def test_names_and_factory(self):
        assert SCHEDULER_NAMES == ("static", "lpt", "steal")
        for name in SCHEDULER_NAMES:
            assert resolve_scheduler(name).name == name
        with pytest.raises(ValidationError, match="unknown scheduler"):
            resolve_scheduler("fifo")

    def test_resolve(self):
        assert resolve_scheduler(None).name == "static"
        assert resolve_scheduler("steal").name == "steal"
        s = LPTScheduler()
        assert resolve_scheduler(s) is s
        with pytest.raises(ValidationError):
            resolve_scheduler(42)

    def test_static_matches_backend_map(self):
        backend = SerialBackend()
        tasks = list(range(9))
        results, stats = StaticChunkScheduler().map(backend, _square, tasks)
        assert results == backend.map(_square, tasks)
        assert stats.strategy == "static"
        assert stats.steals == 0 and stats.tasks_moved == 0
        assert sum(stats.initial_depths) == len(tasks)

    def test_lpt_order_is_stable_descending(self):
        sched = LPTScheduler()
        assert sched.order(4, [1.0, 3.0, 3.0, 2.0]) == [1, 2, 3, 0]
        assert sched.order(3, None) == [0, 1, 2]
        with pytest.raises(ValidationError):
            sched.order(3, [1.0, 2.0])

    def test_lpt_results_in_task_order(self):
        with ThreadBackend(3) as backend:
            tasks = list(range(11))
            costs = [(7 * i) % 5 + 1 for i in tasks]
            results, stats = LPTScheduler().map(backend, _square, tasks,
                                                costs=costs)
        assert results == [_square(t) for t in tasks]
        assert stats.strategy == "lpt"
        assert stats.n_tasks == 11 and stats.workers == 3

    def test_steal_results_in_task_order(self):
        with ThreadBackend(3) as backend:
            tasks = list(range(17))
            results, stats = WorkStealingScheduler(seed=5).map(
                backend, _square, tasks)
        assert results == [_square(t) for t in tasks]
        assert stats.strategy == "steal"
        assert stats.steals == stats.tasks_moved == len(stats.events)
        assert sum(stats.initial_depths) == 17

    def test_steal_empty_and_serial(self):
        backend = SerialBackend()
        results, stats = WorkStealingScheduler().map(backend, _square, [])
        assert results == [] and stats.n_tasks == 0
        # One worker: nothing to steal from, ever.
        results, stats = WorkStealingScheduler().map(backend, _square,
                                                     list(range(6)))
        assert results == [_square(t) for t in range(6)]
        assert stats.steals == 0

    def test_victim_orders_seeded(self):
        a = WorkStealingScheduler(seed=3).victim_orders(5)
        b = WorkStealingScheduler(seed=3).victim_orders(5)
        assert a == b
        for w, order in enumerate(a):
            assert sorted(order) == [v for v in range(5) if v != w]

    def test_stats_combine(self):
        head = SchedStats(strategy="steal", n_tasks=8, workers=2, steals=2,
                          tasks_moved=2, initial_depths=(4, 4))
        tail = SchedStats(strategy="steal", n_tasks=3, workers=2, steals=1,
                          tasks_moved=1)
        merged = SchedStats.combine([head, tail])
        assert merged.steals == 3 and merged.tasks_moved == 3
        assert merged.n_tasks == 8 and merged.initial_depths == (4, 4)
        assert SchedStats.combine([]).n_tasks == 0


class TestSubmitPrimitives:
    @pytest.mark.parametrize("name", ["serial", "thread"])
    def test_submit_and_as_completed(self, name):
        with make_backend(name, 2) as backend:
            handles = [backend.submit(_square, i) for i in range(7)]
            seen = sorted(h.result() for h in backend.as_completed(handles))
            assert seen == [_square(i) for i in range(7)]
            for h in handles:
                assert h.done

    @pytest.mark.parametrize("name", ["serial", "thread"])
    def test_submit_propagates_exceptions(self, name):
        with make_backend(name, 2) as backend:
            h = backend.submit(_boom, 3)
            next(iter(backend.as_completed([h])))
            with pytest.raises(Exception) as err:
                h.result()
            assert "boom on 3" in str(err.value) or isinstance(
                err.value, BackendError)

    @pytest.mark.sched
    def test_process_submit_round_trip(self):
        with make_backend("process", 2) as backend:
            handles = [backend.submit(_square, i) for i in range(7)]
            seen = sorted(h.result() for h in backend.as_completed(handles))
            assert seen == [_square(i) for i in range(7)]
            h = backend.submit(_boom, 1)
            next(iter(backend.as_completed([h])))
            with pytest.raises(BackendError):
                h.result()


# ----------------------------------------------------------------------
# Properties: placement invariance and the greedy bound.
# ----------------------------------------------------------------------


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(costs=costs_st, seed=seed_st)
    def test_results_invariant_under_costs_and_seed(self, costs, seed):
        """Any cost vector, any steal seed: the output list never moves."""
        tasks = list(range(len(costs)))
        expected = [_square(t) for t in tasks]
        backend = SerialBackend()
        lpt, _ = LPTScheduler().map(backend, _square, tasks, costs=costs)
        steal, _ = WorkStealingScheduler(seed=seed).map(backend, _square,
                                                        tasks)
        assert lpt == expected
        assert steal == expected

    @settings(max_examples=60, deadline=None)
    @given(costs=costs_st, workers=workers_st, seed=seed_st,
           strategy=st.sampled_from(["lpt", "steal"]))
    def test_greedy_bound(self, costs, workers, seed, strategy):
        """List scheduling: makespan ≤ Σ/m + max ≤ 2·LB ≤ 2·OPT."""
        schedule = simulate_schedule(costs, workers, strategy=strategy,
                                     seed=seed)
        bound = sum(costs) / workers + max(costs)
        lower = max(max(costs), sum(costs) / workers)
        assert schedule.makespan <= bound + 1e-9
        assert schedule.makespan >= lower - 1e-9
        assert schedule.makespan <= 2.0 * lower + 1e-9
        # Work conservation: every task appears exactly once.
        assert sorted(a[0] for a in schedule.assignments) == list(
            range(len(costs)))

    @settings(max_examples=40, deadline=None)
    @given(costs=costs_st, workers=workers_st, seed=seed_st)
    def test_steal_schedule_replays_byte_identically(self, costs, workers,
                                                     seed):
        a = simulate_schedule(costs, workers, strategy="steal", seed=seed)
        b = simulate_schedule(costs, workers, strategy="steal", seed=seed)
        assert a.digest() == b.digest()

    @settings(max_examples=40, deadline=None)
    @given(costs=costs_st, workers=workers_st)
    def test_static_schedule_is_the_block_partition(self, costs, workers):
        schedule = simulate_schedule(costs, workers, strategy="static")
        per_worker = [0.0] * workers
        for task, w, start, end in schedule.assignments:
            assert math.isclose(end - start, costs[task], abs_tol=1e-12)
            per_worker[w] += costs[task]
        assert math.isclose(schedule.makespan, max(per_worker, default=0.0),
                            abs_tol=1e-9)
        assert schedule.stats.steals == 0


class TestSimulateValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            simulate_schedule([1.0, -2.0], 2)
        with pytest.raises(ValidationError):
            simulate_schedule([1.0], 1, strategy="fifo")
        with pytest.raises(ValidationError):
            simulate_schedule([1.0, 1.0], 1, strategy="lpt",
                              estimates=[1.0])

    def test_stale_estimates_hurt_lpt_not_steal(self):
        """The F19 mechanism: LPT places by belief, stealing by observation."""
        costs = [9.0, 1.0, 1.0, 1.0, 9.0, 1.0, 1.0, 1.0]
        uniform = [1.0] * len(costs)
        lpt = simulate_schedule(costs, 4, strategy="lpt", estimates=uniform)
        steal = simulate_schedule(costs, 4, strategy="steal", seed=0)
        assert steal.makespan <= lpt.makespan

    def test_steal_beats_static_on_skew(self):
        # Front-loaded skew: the static block partition welds the heavy
        # tasks onto worker 0 while the rest idle.
        costs = [40.0] * 4 + [1.0] * 28
        steal = simulate_schedule(costs, 4, strategy="steal")
        static = simulate_schedule(costs, 4, strategy="static")
        assert steal.makespan < static.makespan


# ----------------------------------------------------------------------
# Integration: runner guards.
# ----------------------------------------------------------------------


MODEL = MultiAssetGBM.single(100.0, 0.2, 0.05)


class TestRunnerGuards:
    def test_inline_engine_rejects_scheduling(self):
        from repro.engine import ParallelLatticePricer

        pricer = ParallelLatticePricer(64)
        pricer.scheduler = "steal"
        with pytest.raises(ValidationError, match="runs inline"):
            pricer.price(MODEL, Call(100.0), 1.0, 2)

    def test_non_schedulable_engine_rejects(self, monkeypatch):
        from repro.engine import ParallelMCPricer

        monkeypatch.setattr(ParallelMCPricer, "schedulable", False)
        pricer = ParallelMCPricer(1_000, seed=0, scheduler="lpt")
        with pytest.raises(ValidationError, match="not schedulable"):
            pricer.price(MODEL, Call(100.0), 1.0, 2)

    def test_static_string_is_always_allowed(self):
        from repro.engine import ParallelLatticePricer

        pricer = ParallelLatticePricer(64)
        ref = pricer.price(MODEL, Call(100.0), 1.0, 2).price
        pricer.scheduler = "static"
        assert float_bits(pricer.price(MODEL, Call(100.0), 1.0, 2).price) \
            == float_bits(ref)

    def test_cli_refuses_a_scheduler_on_an_inline_engine(self, capsys):
        from repro.cli import main

        assert main(["scaling", "--engine", "lattice", "--scheduler",
                     "steal", "--plist", "1,2", "--steps", "8"]) == 2
        assert "runs inline" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Acceptance lane (-m sched): bitwise equality across the stack.
# ----------------------------------------------------------------------


def _mc_bits(n_paths, seed, p, *, backend=None, **kw):
    from repro.engine import ParallelMCPricer

    pricer = ParallelMCPricer(n_paths, seed=seed, backend=backend, **kw)
    return float_bits(pricer.price(MODEL, Call(100.0), 1.0, p).price)


@pytest.mark.sched
class TestBitwiseAcceptance:
    N, SEED, P = 12_000, 11, 6

    def test_mc_every_strategy_every_backend(self):
        ref = _mc_bits(self.N, self.SEED, self.P)
        for strategy in ("static", "lpt", "steal"):
            for name in ("serial", "thread", "process"):
                with make_backend(name, 2) as backend:
                    assert _mc_bits(self.N, self.SEED, self.P,
                                    backend=backend,
                                    scheduler=strategy) == ref, (
                        strategy, name)

    def test_greeks_scheduled_bitwise(self):
        from repro.engine import ParallelMCGreeks

        def bits(**kw):
            pricer = ParallelMCGreeks(8_000, seed=3, **kw)
            greeks = pricer.compute(MODEL, Call(100.0), 1.0, 4)
            return [float_bits(v) for v in
                    (greeks.price, float(greeks.delta[0]),
                     float(greeks.vega[0]))]

        ref = bits()
        with ThreadBackend(2) as backend:
            assert bits(backend=backend, scheduler="steal") == ref
            assert bits(backend=backend, scheduler="lpt") == ref

    def test_fault_retry_under_stealing(self):
        from repro.parallel.faults import FaultPlan

        ref = _mc_bits(self.N, self.SEED, self.P)
        with ThreadBackend(2) as backend:
            assert _mc_bits(self.N, self.SEED, self.P, backend=backend,
                            scheduler="steal",
                            faults=FaultPlan.single_crash(2),
                            policy="retry") == ref

    def test_resilient_map_reports_sched(self):
        from repro.parallel.faults import FaultPlan, resilient_map

        plan = FaultPlan.single_crash(1)
        with ThreadBackend(2) as backend:
            results, report = resilient_map(backend, _square, list(range(8)),
                                            plan=plan, policy="retry",
                                            scheduler="steal")
        assert results == [_square(i) for i in range(8)]
        assert report.sched is not None
        assert report.sched.strategy == "steal"
        assert report.sched.n_tasks == 8

    def test_serve_ledger_records_sched(self, tmp_path):
        from repro.obs.ledger import RunLedger
        from repro.serve import PricingRequest, PricingService
        from repro.workloads.generators import random_portfolio

        book = random_portfolio(4, seed=7)
        requests = [PricingRequest(w, engine="mc", n_paths=1_000 * (1 + i),
                                   seed=i, p=2, name=w.name)
                    for i, w in enumerate(book)]
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        with ThreadBackend(2) as backend:
            with PricingService(backend, cache=None, ledger=ledger,
                                max_batch=len(requests)) as svc:
                placed = svc.price_many(requests)
        with PricingService(cache=None, max_batch=len(requests)) as svc:
            ref = svc.price_many(requests)
        assert [float_bits(q.price) for q in placed] == \
            [float_bits(q.price) for q in ref]
        # Unequal path budgets on two workers go out costliest-first.
        record, = ledger.records()
        assert record.extra["sched"]["strategy"] == "lpt"

    def test_ledger_summary_shows_sched(self, tmp_path):
        from repro.engine import ParallelMCPricer
        from repro.obs.diff import report_table, summarize_ledger
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(tmp_path / "ledger.jsonl")
        pricer = ParallelMCPricer(2_000, seed=1, scheduler="steal")
        pricer.ledger = ledger
        pricer.price(MODEL, Call(100.0), 1.0, 4)
        stats = summarize_ledger(ledger.records())
        wall = stats[("engine", "mc", "wall")]
        assert wall.sched_label.startswith("steal:")
        rendered = report_table(stats).render()
        assert "sched" in rendered

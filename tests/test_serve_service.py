"""The batched pricing service: batching discipline, dedup, cache replay,
metrics — and the price-neutrality contract (quotes are bitwise invariant
to batch boundaries, chunk size, backend and cache state)."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.parallel import ProcessBackend, SerialBackend, ThreadBackend
from repro.payoffs import BasketCall, Call
from repro.serve import (PriceCache, PricingRequest, PricingService,
                         revalue_scenarios)
from repro.verify.determinism import float_bits
from repro.workloads.generators import basket_workload, random_portfolio


def _mc_requests(n, *, paths=1_500, base_seed=0):
    book = random_portfolio(max(n, 1), seed=4)
    return [PricingRequest(book[i % len(book)], engine="mc", n_paths=paths,
                           seed=base_seed + i, p=2) for i in range(n)]


class TestServiceBatching:
    def test_cuts_exactly_at_max_batch(self, tmp_path):
        from repro.obs import MetricsRegistry, RunLedger

        metrics = MetricsRegistry()
        ledger = RunLedger(tmp_path / "runs.jsonl")
        with PricingService(max_batch=3, cache=None, metrics=metrics,
                            ledger=ledger) as svc:
            quotes = svc.price_many(_mc_requests(7))
            assert svc.batches == 3
        assert len(quotes) == 7
        # Consecutive slices, in input order: 3, 3, then the straggler.
        assert [r.extra["requests"] for r in ledger.records()] == [3, 3, 1]
        assert metrics.counter("serve.batches").value == 3

    def test_rejects_non_requests(self):
        reqs = _mc_requests(2)
        with PricingService(max_batch=1) as svc:
            with pytest.raises(ValidationError, match="PricingRequest"):
                svc.price_many([reqs[0], "not a request", reqs[1]])
            # Refused at the door: no batch ran, not even the first one.
            assert svc.batches == 0 and svc.map_calls == 0

    def test_results_in_submission_order(self):
        reqs = _mc_requests(6)
        with PricingService(max_batch=4, cache=None) as svc:
            quotes = svc.price_many(reqs)
        with PricingService(max_batch=1, cache=None) as svc:
            one_by_one = [svc.price_many([r])[0] for r in reqs]
        assert [float_bits(q.price) for q in quotes] == [
            float_bits(q.price) for q in one_by_one]

    def test_batch_boundaries_never_move_a_price(self):
        reqs = _mc_requests(9)
        quotes = {}
        for max_batch in (1, 4, 9):
            with PricingService(max_batch=max_batch, cache=None) as svc:
                quotes[max_batch] = svc.price_many(reqs)
        ref = [float_bits(q.price) for q in quotes[9]]
        for max_batch in (1, 4):
            assert [float_bits(q.price) for q in quotes[max_batch]] == ref


class TestDedupAndCache:
    def test_duplicates_in_one_batch_priced_once(self):
        w = basket_workload(2)
        dup = PricingRequest(w, engine="mc", n_paths=1_000, seed=7)
        reqs = [dup, dup, dup]
        counting = _CountingBackend()
        with PricingService(counting, max_batch=3, cache=None) as svc:
            quotes = svc.price_many(reqs)
        assert counting.tasks_seen == 1  # one compute fanned out to three
        assert len({float_bits(q.price) for q in quotes}) == 1

    def test_full_hit_replay_issues_zero_map_calls(self):
        reqs = _mc_requests(5)
        cache = PriceCache(32)
        with PricingService(max_batch=5, cache=cache) as svc:
            first = svc.price_many(reqs)
            maps_after_first = svc.map_calls
            second = svc.price_many(reqs)
            assert svc.map_calls == maps_after_first  # zero new map calls
        assert ([float_bits(q.price) for q in first]
                == [float_bits(q.price) for q in second])
        assert cache.hits == len(reqs)

    def test_cache_shared_across_services(self):
        reqs = _mc_requests(3)
        cache = PriceCache(32)
        with PricingService(max_batch=3, cache=cache) as svc:
            first = svc.price_many(reqs)
        with PricingService(max_batch=1, cache=cache) as svc:
            second = svc.price_many(reqs)
            assert svc.map_calls == 0
        assert ([float_bits(q.price) for q in first]
                == [float_bits(q.price) for q in second])

    def test_metrics_counters(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        reqs = _mc_requests(4)
        cache = PriceCache(32)
        with PricingService(max_batch=2, cache=cache,
                            metrics=metrics) as svc:
            svc.price_many(reqs + reqs)  # second half replays from cache
        assert metrics.counter("serve.requests").value == 8
        assert metrics.counter("serve.batches").value == 4
        assert metrics.counter("serve.map_calls").value == 2
        assert metrics.counter("serve.cache_hits").value == 4
        assert metrics.counter("serve.cache_misses").value == 4
        hist = metrics.histogram("serve.batch_size")
        assert hist.count == 4


class TestServeObservability:
    def test_each_batch_appends_a_ledger_record(self, tmp_path):
        from repro.obs import RunLedger

        ledger = RunLedger(tmp_path / "runs.jsonl")
        reqs = _mc_requests(4)
        with PricingService(max_batch=2, ledger=ledger) as svc:
            svc.price_many(reqs)
        records = ledger.records()
        assert len(records) == 2
        for rec in records:
            assert rec.kind == "serve" and rec.engine == "service"
            assert set(rec.stages) == {"batch"}
            assert rec.wall_s == rec.stages["batch"] >= 0.0
            assert rec.extra["requests"] == 2
            assert rec.extra["hits"] + rec.extra["misses"] == 2

    def test_cache_replay_batches_record_zero_map_calls(self, tmp_path):
        from repro.obs import RunLedger

        ledger = RunLedger(tmp_path / "runs.jsonl")
        reqs = _mc_requests(3)
        cache = PriceCache(32)
        with PricingService(max_batch=3, cache=cache, ledger=ledger) as svc:
            svc.price_many(reqs)
            svc.price_many(reqs)
        first, second = ledger.records()
        assert first.extra["map_calls"] == 1 and first.extra["misses"] == 3
        assert second.extra["map_calls"] == 0 and second.extra["hits"] == 3

    def test_metrics_registry_wired_into_backend_task_latency(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        with PricingService(max_batch=4, cache=None,
                            metrics=metrics) as svc:
            assert svc.backend.metrics is metrics
            svc.price_many(_mc_requests(4))
        hist = metrics.histogram("task_latency",
                                 backend=svc.backend.name)
        assert hist.count > 0

    def test_task_latency_feeds_the_chunk_autotuner(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        with PricingService(max_batch=4, cache=None,
                            metrics=metrics) as svc:
            hist = metrics.histogram("task_latency",
                                     backend=svc.backend.name)
            # A dispersed latency profile (stragglers) recorded before the
            # batch lands in the autotuner via observe_histogram.
            for _ in range(30):
                hist.observe(0.001)
            hist.observe(0.064)
            svc.price_many(_mc_requests(4))
            assert svc._autotuner.dispersion > 1.0


class _CountingBackend(SerialBackend):
    """Serial backend that counts the tasks it actually executes."""

    def __init__(self):
        super().__init__()
        self.tasks_seen = 0

    def _run_map(self, worker, tasks):
        self.tasks_seen += len(tasks)
        return super()._run_map(worker, tasks)


class TestBackendNeutrality:
    def test_serial_vs_thread_vs_process_bitwise(self):
        reqs = _mc_requests(4)
        with PricingService(max_batch=4, cache=None) as svc:
            ref = [float_bits(q.price) for q in svc.price_many(reqs)]
        for factory in (lambda: ThreadBackend(2),
                        lambda: ProcessBackend(2)):
            backend = factory()
            try:
                with PricingService(backend, max_batch=4, chunksize=2,
                                    cache=None) as svc:
                    got = [float_bits(q.price) for q in svc.price_many(reqs)]
            finally:
                backend.close()
            assert got == ref

    @pytest.mark.parametrize("engine,kwargs", [
        ("lattice", {"steps": 16}),
        ("pde", {"grid": 32, "steps": 16}),
        ("lsm", {"steps": 8, "n_paths": 800}),
    ])
    def test_non_mc_engines_route_and_replay(self, engine, kwargs):
        from repro.workloads.generators import rainbow_workload, spread_workload

        w = {"lattice": rainbow_workload, "pde": spread_workload,
             "lsm": lambda: basket_workload(2)}[engine]()
        request = PricingRequest(w, engine=engine, **kwargs)
        cache = PriceCache(8)
        with PricingService(max_batch=1, cache=cache) as svc:
            a = svc.price_many([request])[0]
            b = svc.price_many([request])[0]
        assert a.engine == engine
        assert float_bits(a.price) == float_bits(b.price)
        assert cache.hits == 1


class TestRevalueScenarios:
    def _scenarios(self, n=4_000, dim=3):
        rng = np.random.default_rng(12)
        return 80.0 + 40.0 * rng.random((n, dim))

    def test_serial_matches_numpy_reference(self):
        scen = self._scenarios()
        payoffs = [BasketCall([1 / 3] * 3, k) for k in (90.0, 100.0, 110.0)]
        got = revalue_scenarios(payoffs, scen, discount=0.95)
        ref = [0.95 * float(np.mean(p.terminal(scen))) for p in payoffs]
        assert got == ref

    @pytest.mark.skipif(os.name != "posix", reason="fork backend is POSIX-only")
    def test_process_shm_chunked_bitwise_equals_serial(self):
        scen = self._scenarios()
        payoffs = [BasketCall([1 / 3] * 3, 80.0 + k) for k in range(12)]
        ref = revalue_scenarios(payoffs, scen)
        with ProcessBackend(2, shm_min_bytes=1024) as backend:
            got = revalue_scenarios(payoffs, scen, backend=backend,
                                    chunksize=3)
            assert backend.last_shm_segments  # the matrix actually crossed shm
        assert [float_bits(x) for x in got] == [float_bits(x) for x in ref]

    def test_rejects_non_matrix_scenarios(self):
        with pytest.raises(ValidationError):
            revalue_scenarios([Call(100.0)], np.zeros(5))

    def test_per_scenario_discount_vector(self):
        scen = self._scenarios(n=500)
        payoffs = [BasketCall([1 / 3] * 3, k) for k in (90.0, 110.0)]
        disc = np.exp(-0.05 * np.linspace(0.5, 2.0, scen.shape[0]))
        got = revalue_scenarios(payoffs, scen, discount=disc)
        ref = [float(np.mean(disc * p.terminal(scen))) for p in payoffs]
        assert [float_bits(x) for x in got] == [float_bits(x) for x in ref]

    def test_discount_vector_length_mismatch_raises(self):
        scen = self._scenarios(n=100)
        with pytest.raises(ValidationError):
            revalue_scenarios([Call(100.0)], scen, discount=np.ones(99))
        with pytest.raises(ValidationError):
            revalue_scenarios([Call(100.0)], scen, discount=np.ones((100, 1)))

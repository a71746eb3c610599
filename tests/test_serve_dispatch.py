"""How a batched book meets the workers — and that it never shows in a quote.

A ``book_batch``-shaped request list (Monte Carlo strike ladders that fuse
to strips, a lattice ladder, heterogeneous singles, one duplicate, all
shuffled) must come back from ``price_many`` in submission order, each
quote carrying the bits of the serial :func:`price_request` reference and
stored under the request's own cache key, whatever backend ran it and in
whatever order the tasks were dispatched. The mechanism tests below pin
that order: a heterogeneous plan reaches a multi-worker backend
costliest-first, one task per message; a uniform plan keeps count-based
chunks sized from the number of tasks actually dispatched.
"""

import os
import random

import pytest

from repro.batch import ContractStrip, plan_batches, task_cost
from repro.errors import ValidationError
from repro.obs.ledger import RunLedger
from repro.parallel import (ChunkAutotuner, ProcessBackend, SerialBackend,
                            ThreadBackend, suggest_chunksize)
from repro.payoffs import CallOnMax
from repro.serve import (PriceCache, PricingRequest, PricingService,
                         price_request, request_key)
from repro.workloads import (Workload, rainbow_workload, random_portfolio,
                             strike_strip)


def _book(seed=5):
    """2 MC ladders × 6 + 1 lattice ladder × 5 + 4 singles + 1 duplicate."""
    book = []
    for ladder in range(2):
        book.extend(
            PricingRequest(w, engine="mc", n_paths=600, seed=10 + ladder, p=2)
            for w in strike_strip(6, dim=2, vol=0.18 + 0.01 * ladder))
    base = rainbow_workload()
    book.extend(
        PricingRequest(Workload(f"rainbow-{k}", base.model, CallOnMax(k),
                                base.expiry), engine="lattice", steps=8, p=2)
        for k in (85.0, 95.0, 100.0, 105.0, 115.0))
    book.extend(PricingRequest(w, engine="mc", n_paths=600, seed=seed, p=2)
                for w in random_portfolio(4, dim=4, seed=seed))
    book.append(book[0])
    random.Random(f"book-{seed}").shuffle(book)
    return book


@pytest.fixture(scope="module")
def book():
    return _book()


@pytest.fixture(scope="module")
def reference(book):
    return [price_request(r) for r in book]


@pytest.mark.parametrize("make_backend", [
    SerialBackend,
    lambda: ThreadBackend(2),
    pytest.param(lambda: ProcessBackend(2), marks=pytest.mark.skipif(
        os.name != "posix", reason="fork backend is POSIX-only")),
], ids=["serial", "thread", "process"])
def test_book_quotes_order_and_cache_keys(book, reference, make_backend):
    cache = PriceCache(4 * len(book))
    with make_backend() as backend:
        with PricingService(backend, cache=cache,
                            max_batch=len(book)) as service:
            quotes = service.price_many(book)
            stored = cache.keys()
            replay = service.price_many(book)
            assert service.map_calls == 1
    assert len(quotes) == len(book)
    for quote, want in zip(quotes, reference):
        assert quote.engine == want.engine
        assert quote.price.hex() == want.price.hex()
        assert quote.stderr.hex() == want.stderr.hex()
    keys = [request_key(r) for r in book]
    # One entry per distinct request, stored in first-seen order under the
    # key request_key computes; the replay returns those objects.
    assert stored == tuple(dict.fromkeys(keys))
    assert all(cache.get(k) is q for k, q in zip(keys, quotes))
    assert all(a is b for a, b in zip(quotes, replay))


def test_book_sim_time_is_backend_invariant(book):
    """``sim_time`` describes the fused run, not the host that ran it."""
    def sim_times(backend):
        with backend, PricingService(backend,
                                     max_batch=len(book)) as service:
            return [q.sim_time.hex() for q in service.price_many(book)]

    assert sim_times(ThreadBackend(2)) == sim_times(SerialBackend())


# ---------------------------------------------------------------------------
# The mechanisms: cost estimates, dispatch order, planner and tuner inputs
# ---------------------------------------------------------------------------


class _RecordingBackend(SerialBackend):
    """Runs serially, claims two workers, keeps what each map was handed."""

    max_workers = 2

    def __init__(self):
        super().__init__()
        self.maps = []

    def map(self, worker, tasks, *, chunksize=None):
        tasks = list(tasks)
        self.maps.append((tasks, chunksize))
        return super().map(worker, tasks, chunksize=chunksize)


def _uniform(n=12):
    return [PricingRequest(w, engine="mc", n_paths=600, seed=i, p=2)
            for i, w in enumerate(random_portfolio(n, dim=3, seed=2))]


class TestCostOrderedDispatch:
    def test_heterogeneous_plan_goes_costliest_first_unchunked(
            self, book, reference, tmp_path):
        backend = _RecordingBackend()
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        with PricingService(backend, cache=None, max_batch=len(book),
                            ledger=ledger) as service:
            quotes = service.price_many(book)
        (tasks, chunksize), = backend.maps
        assert chunksize == 1
        costs = [task_cost(t) for t in tasks]
        assert costs == sorted(costs, reverse=True)
        # The plan's own tasks, each exactly once, in a different order.
        planned = plan_batches(list(dict.fromkeys(book))).tasks()
        assert tasks != planned and len(tasks) == len(planned)
        assert all(t in tasks for t in planned)
        assert [q.price.hex() for q in quotes] == [
            q.price.hex() for q in reference]
        record, = ledger.records()
        assert record.extra["sched"]["strategy"] == "lpt"
        # p / misses count deduped requests, as they always have.
        assert record.p == record.extra["misses"] == len(book) - 1

    def test_uniform_plan_keeps_count_based_chunks(self):
        backend = _RecordingBackend()
        requests = _uniform()
        with PricingService(backend, cache=None,
                            max_batch=len(requests)) as service:
            service.price_many(requests)
        (tasks, chunksize), = backend.maps
        assert tasks == requests
        assert chunksize == suggest_chunksize(len(requests), 2)

    def test_one_worker_never_reorders(self, book):
        backend = _RecordingBackend()
        backend.max_workers = 1
        with PricingService(backend, cache=None,
                            max_batch=len(book)) as service:
            service.price_many(book)
        (tasks, _), = backend.maps
        assert tasks == plan_batches(list(dict.fromkeys(book))).tasks()


class TestTaskCost:
    def _mc(self, n_paths=1_000, steps=None, dim=2):
        w = strike_strip(1, dim=dim)[0]
        return PricingRequest(w, engine="mc", n_paths=n_paths, steps=steps)

    def test_monotone_in_paths_steps_and_strip_length(self):
        assert task_cost(self._mc(2_000)) > task_cost(self._mc(1_000))
        assert task_cost(self._mc(steps=8)) > task_cost(self._mc(steps=4))
        ladder = [PricingRequest(w, engine="mc", n_paths=1_000)
                  for w in strike_strip(6, dim=2)]
        costs = [task_cost(ContractStrip.from_requests(ladder[:c]))
                 for c in (2, 3, 6)]
        assert costs == sorted(set(costs))
        # A strip of one is the single request; fusing beats pricing apart.
        assert (task_cost(ContractStrip.from_requests(ladder[:1]))
                == task_cost(ladder[0]))
        assert costs[-1] < 6 * task_cost(ladder[0])

    def test_lattice_scales_with_steps_and_contracts(self):
        base = rainbow_workload()
        def request(k, steps):
            return PricingRequest(Workload("r", base.model, CallOnMax(k),
                                           base.expiry),
                                  engine="lattice", steps=steps)
        assert task_cost(request(100.0, 16)) > task_cost(request(100.0, 8))
        strip = ContractStrip.from_requests(
            [request(k, 8) for k in (90.0, 100.0, 110.0)])
        assert task_cost(strip) == 3 * task_cost(request(100.0, 8))

    @pytest.mark.parametrize("engine,kwargs", [
        ("pde", {"grid": 16, "steps": 8}), ("pde", {"grid": 16}),
        ("lsm", {"n_paths": 500, "steps": 6}),
    ])
    def test_every_servable_engine_has_an_estimate(self, engine, kwargs):
        from repro.workloads import spread_workload

        request = PricingRequest(spread_workload(), engine=engine, **kwargs)
        assert task_cost(request) > 0.0


class TestPlannerAndTunerInputs:
    def test_plan_hashes_once_per_distinct_group(self, book, monkeypatch):
        """At most once per request, exactly once per distinct (model
        instance, expiry, engine, settings) — and not at all when fewer
        than ``min_strip`` requests arrive."""
        import repro.batch.plan as plan_mod
        import repro.batch.strip as strip_mod

        calls = []
        real = strip_mod.batch_key

        def counting(request):
            calls.append(request)
            return real(request)

        monkeypatch.setattr(plan_mod, "batch_key", counting)
        monkeypatch.setattr(strip_mod, "batch_key", counting)
        plan = plan_mod.plan_batches(book)
        # 2 MC ladders + 1 lattice ladder + 4 singles; the duplicate is
        # the same object as a ladder member.
        assert len(calls) == 7 == len(plan.tasks())
        assert len({id(r) for r in calls}) == 7
        assert all(s.key == real(s.requests[0]) for s in plan.strips)
        assert all(real(r) == s.key for s in plan.strips for r in s.requests)

        # Equal-valued distinct model instances hash apiece, and still fuse.
        del calls[:]
        twins = [PricingRequest(w, engine="mc", n_paths=600)
                 for w in (strike_strip(1, dim=2)[0], strike_strip(1, dim=2)[0])]
        assert twins[0].workload.model is not twins[1].workload.model
        strip, = plan_mod.plan_batches(twins).strips
        assert len(calls) == 2 and strip.requests == tuple(twins)

        del calls[:]
        assert plan_mod.plan_batches(book[:1]).singles == (book[0],)
        assert plan_mod.plan_batches(book[:2], min_strip=3).singles == (
            book[0], book[1])
        assert calls == []
        # Every other caller still gets the homogeneity check.
        with pytest.raises(ValidationError, match="one batch key"):
            ContractStrip.from_requests(_uniform(2))

    def test_autotuner_sees_dispatched_tasks_not_requests(self, book):
        seen = []

        class Spy(ChunkAutotuner):
            def chunksize(self, n_tasks):
                seen.append(("chunksize", n_tasks))
                return super().chunksize(n_tasks)

            def observe(self, n_tasks, wall_seconds):
                seen.append(("observe", n_tasks))
                super().observe(n_tasks, wall_seconds)

        n_tasks = len(plan_batches(list(dict.fromkeys(book))).tasks())
        assert n_tasks < len(book) - 1
        with PricingService(cache=None, max_batch=len(book)) as service:
            service._autotuner = Spy(1)
            service.price_many(book)
        assert seen == [("chunksize", n_tasks), ("observe", n_tasks)]

"""Pinned behaviour of the pricing service around what a batch's misses become.

Whatever the service does with the cache misses of one batch — prices
them one by one or fuses the ones that share a market into a strip — a
caller sees the same thing: quotes in submission order carrying the
``(price, stderr)`` bits of the serial :func:`price_request` reference,
each stored under the key :func:`request_key` computes, one backend map
per batch that has a miss and none for a batch that has none, and exact
hit / miss / in-batch-duplicate counts. Every service here is built both
with default arguments and with ``batched=False``, on the serial, thread
and process backends: none of it may depend on either choice.

The risk literals are the ones ``tests/test_risk_pinned.py`` pins through
a service ``revalue_book`` builds for itself; here the *caller* supplies
the service, which is how ``repro risk``, F18 and the end-to-end benchmark
reach the risk tier.
"""

from __future__ import annotations

import os

import pytest

from repro.obs import MetricsRegistry
from repro.parallel import ProcessBackend, SerialBackend, ThreadBackend
from repro.risk import (axis_sweep, portfolio_deltas, revalue_book,
                        stress_scenarios)
from repro.risk.scenarios import SWEEP_AXES, Scenario, shock_book
from repro.risk.var import book_requests
from repro.serve import (PriceCache, PricingRequest, PricingService,
                         price_request, request_key)
from repro.workloads.generators import random_portfolio, strike_strip
from tests.test_risk_pinned import BOOKS, N_PATHS, PINNED

SEED = 3

BACKENDS = [
    pytest.param(SerialBackend, id="serial"),
    pytest.param(lambda: ThreadBackend(2), id="thread"),
    pytest.param(lambda: ProcessBackend(2), id="process",
                 marks=pytest.mark.skipif(
                     os.name != "posix", reason="fork backend is POSIX-only")),
]

#: Constructor arguments a caller may still pass; neither changes a quote,
#: a key or a count below.
SERVICES = [pytest.param({}, id="default"),
            pytest.param({"batched": False}, id="batched-false")]


def _bits(quote):
    return quote.price.hex(), quote.stderr.hex()


def _risk_batches():
    """Three stress scenarios' books: 16 requests each, one shocked market
    instance, one seed and one path budget per batch."""
    book = strike_strip(16, dim=2)
    return [book_requests(shock_book(book, scenario), engine="mc",
                          n_paths=N_PATHS, seed=SEED, p=1)
            for scenario in stress_scenarios(2, 3, seed=SEED)]


@pytest.fixture(scope="module")
def risk_batches():
    return _risk_batches()


@pytest.fixture(scope="module")
def risk_reference(risk_batches):
    return [[_bits(price_request(r)) for r in batch] for batch in risk_batches]


class _RecordingBackend(SerialBackend):
    """Runs serially and keeps the task list of every map."""

    def __init__(self):
        super().__init__()
        self.maps = []

    def map(self, worker, tasks, *, chunksize=None):
        tasks = list(tasks)
        self.maps.append(tasks)
        return super().map(worker, tasks, chunksize=chunksize)


@pytest.mark.parametrize("kwargs", SERVICES)
@pytest.mark.parametrize("make_backend", BACKENDS)
def test_risk_shaped_batch_bits_keys_and_counts(risk_batches, risk_reference,
                                                make_backend, kwargs):
    cache = PriceCache(256)
    with make_backend() as backend, PricingService(
            backend, cache=cache, max_batch=16, **kwargs) as service:
        for batch, want in zip(risk_batches, risk_reference):
            hits, misses, maps = cache.hits, cache.misses, service.map_calls
            quotes = service.price_many(batch)
            assert [_bits(q) for q in quotes] == want
            # Stored in submission order under each request's own key; the
            # replay below shows the stored objects are these quotes.
            assert cache.keys()[-16:] == tuple(request_key(r) for r in batch)
            assert (cache.hits - hits, cache.misses - misses,
                    service.map_calls - maps) == (0, 16, 1)

            hits, misses, maps = cache.hits, cache.misses, service.map_calls
            replay = service.price_many(batch)
            assert all(a is b for a, b in zip(replay, quotes))
            assert (cache.hits - hits, cache.misses - misses,
                    service.map_calls - maps) == (16, 0, 0)
    assert len(cache.keys()) == 48


@pytest.mark.parametrize("kwargs", SERVICES)
@pytest.mark.parametrize("name", sorted(BOOKS))
class TestCallerSuppliedServiceReplaysRiskPins:
    def test_revalue_book(self, name, kwargs):
        book, dim = BOOKS[name]()
        digest, base_bits, hits, misses, _, _ = PINNED[name]
        with PricingService(cache=PriceCache(4096), max_batch=len(book),
                            **kwargs) as service:
            report = revalue_book(book, stress_scenarios(dim, 8, seed=3),
                                  n_paths=N_PATHS, service=service)
            # base + 8 scenarios, every one a batch of misses
            assert service.map_calls == 9
        assert report.pnl_digest() == digest
        assert report.base_value.hex() == base_bits
        assert (report.cache_hits, report.cache_misses) == (hits, misses)

    def test_portfolio_deltas(self, name, kwargs):
        book, dim = BOOKS[name]()
        cache = PriceCache(4096)
        with PricingService(cache=cache, max_batch=len(book),
                            **kwargs) as service:
            deltas = portfolio_deltas(book, service=service, n_paths=N_PATHS)
            assert service.map_calls == 2 * dim
        assert [float(d).hex() for d in deltas] == PINNED[name][5]
        assert (cache.hits, cache.misses) == (0, 2 * dim * len(book))


@pytest.mark.parametrize("kwargs", SERVICES)
def test_heterogeneous_book_maps_the_request_objects(kwargs):
    """Six contracts on six markets: nothing to fuse, so the one map is
    handed the six request objects themselves, in submission order."""
    requests = [PricingRequest(w, engine="mc", n_paths=N_PATHS, seed=SEED)
                for w in random_portfolio(6, dim=3)]
    backend = _RecordingBackend()
    with PricingService(backend, cache=None, max_batch=len(requests),
                        **kwargs) as service:
        quotes = service.price_many(requests)
    tasks, = backend.maps
    assert len(tasks) == 6
    assert all(task is request for task, request in zip(tasks, requests))
    assert [_bits(q) for q in quotes] == [
        _bits(price_request(r)) for r in requests]


@pytest.mark.parametrize("kwargs", SERVICES)
@pytest.mark.parametrize("make_backend", BACKENDS)
def test_part_hits_part_misses_part_duplicates(make_backend, kwargs):
    """One batch holding the base book (already cached), a spot-bumped
    book (new) and a second copy of half the bumped book (in-batch
    duplicates) — the shape an axis sweep's later ladders have."""
    book = strike_strip(4, dim=2)

    def requests(workloads):
        return book_requests(workloads, engine="mc", n_paths=N_PATHS,
                             seed=SEED, p=1)

    base = requests(book)
    bumped = requests(shock_book(book, Scenario(
        label="spot+0.05", spot_factors=(1.05,), axis="spot")))
    again = requests(shock_book(book, Scenario(
        label="spot+0.05", spot_factors=(1.05,), axis="spot")))[:2]
    batch = base + bumped + again
    metrics = MetricsRegistry()
    cache = PriceCache(64, metrics=metrics)
    with make_backend() as backend, PricingService(
            backend, cache=cache, max_batch=len(batch), metrics=metrics,
            **kwargs) as service:
        warm = service.price_many(base)
        assert (cache.hits, cache.misses, service.map_calls) == (0, 4, 1)
        quotes = service.price_many(batch)
        assert (cache.hits, cache.misses, service.map_calls) == (4, 10, 2)
    assert metrics.counter("serve.deduped").value == 2
    assert metrics.counter("serve.requests").value == 14
    assert all(a is b for a, b in zip(quotes[:4], warm))
    assert quotes[8] is quotes[4] and quotes[9] is quotes[5]
    assert [_bits(q) for q in quotes] == [
        _bits(price_request(r)) for r in batch]
    assert len(cache.keys()) == 8


@pytest.mark.parametrize("kwargs", SERVICES)
def test_axis_sweep_hit_miss_structure(kwargs):
    """F18b's exact counts through a caller-supplied service: every axis
    ladder leads with the identity scenario, so the cold pass hits on
    each of them and misses on the base book and every bumped point; the
    replay hits on everything."""
    n = 4
    book = strike_strip(n, dim=2)
    sweep = axis_sweep()
    n_axes, n_bumped = len(SWEEP_AXES), len(sweep) - len(SWEEP_AXES)
    with PricingService(cache=PriceCache(4 * n * (len(sweep) + 1)),
                        max_batch=n, **kwargs) as service:
        cold, hot = (revalue_book(book, sweep, n_paths=N_PATHS, seed=SEED,
                                  levels=(0.95,), service=service)
                     for _ in range(2))
        assert service.map_calls == 1 + n_bumped
    assert (cold.cache_hits, cold.cache_misses) == (
        n_axes * n, (1 + n_bumped) * n)
    assert (hot.cache_hits, hot.cache_misses) == ((1 + len(sweep)) * n, 0)
    assert hot.pnl_digest() == cold.pnl_digest()

"""How a batched book meets the workers — and that it never shows in a quote.

A ``book_batch``-shaped request list (Monte Carlo strike ladders that fuse
to strips, a lattice ladder, heterogeneous singles, one duplicate, all
shuffled) must come back from ``price_many`` in submission order, each
quote carrying the bits of the serial :func:`price_request` reference and
stored under the request's own cache key, whatever backend ran it and in
whatever order the tasks were dispatched.
"""

import os
import random

import pytest

from repro.parallel import ProcessBackend, SerialBackend, ThreadBackend
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
        with PricingService(backend, cache=cache, max_batch=len(book),
                            batched=True) as service:
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
    # key the unbatched path computes; the replay returns those objects.
    assert stored == tuple(dict.fromkeys(keys))
    assert all(cache.get(k) is q for k, q in zip(keys, quotes))
    assert all(a is b for a, b in zip(quotes, replay))


def test_book_sim_time_is_backend_invariant(book):
    """``sim_time`` describes the fused run, not the host that ran it."""
    def sim_times(backend):
        with backend, PricingService(backend, max_batch=len(book),
                                     batched=True) as service:
            return [q.sim_time.hex() for q in service.price_many(book)]

    assert sim_times(ThreadBackend(2)) == sim_times(SerialBackend())

"""Pinned bits of the risk tier: what a sweep values and what it asks for.

Captured once at b4bacfa, before the risk layer learned to shock a
market once per scenario. Two books: a strike strip whose 16 contracts
share **one** model instance, and a heterogeneous portfolio whose six
contracts each own a distinct model. A refactor of how a scenario meets
a book must replay every value below bit for bit — base value and P&L
digest (``float.hex()`` / IEEE-754 bits), the cache hit/miss split, the
per-asset deltas, and the canonical request keys of the gateway bridge's
sweep and load-generator books.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.risk import (portfolio_deltas, revalue_book, risk_book,
                        stress_scenarios, sweep_requests)
from repro.serve import PriceCache, PricingService
from repro.serve.batching import PricingRequest, request_key
from repro.workloads.generators import random_portfolio, strike_strip

N_PATHS = 500

BOOKS = {
    "strip": lambda: (strike_strip(16, dim=2), 2),
    "portfolio": lambda: (random_portfolio(6, dim=3), 3),
}

#: book -> (pnl_digest, base_value bits, cache_hits, cache_misses,
#:          sweep request-key digest, per-asset delta bits)
PINNED = {
    "strip": ("2cb294bc7ddf16e5", "0x1.4519c16ea4e26p+7", 0, 144,
              "1a82771f9ce3cc01",
              ["0x1.3d4baa0269770p+2", "0x1.3c2205f26bd10p+2"]),
    "portfolio": ("823e58afafd700ee", "0x1.86eb47c23de0ap+5", 0, 54,
                  "22dfd6fc64d2f7f5",
                  ["0x1.91d27eb01a529p-1", "0x1.683b19af654c5p+0",
                   "0x1.27c910beb509fp+0"]),
}

#: risk_book arguments -> request-key digest of the generated book
PINNED_RISK_BOOKS = {
    (10, 2, 3, 4): "60092254a70547ef",
    (7, 3, 5, 3): "afa1536ff0027a34",
}


def _keys_digest(requests) -> str:
    joined = "\n".join(request_key(r) for r in requests)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(BOOKS))
class TestPinnedSweep:
    def test_revalue_book_bits(self, name):
        book, dim = BOOKS[name]()
        digest, base_bits, hits, misses, _, _ = PINNED[name]
        report = revalue_book(book, stress_scenarios(dim, 8, seed=3),
                              n_paths=N_PATHS)
        assert report.pnl_digest() == digest
        assert report.base_value.hex() == base_bits
        assert (report.cache_hits, report.cache_misses) == (hits, misses)

    def test_sweep_request_keys(self, name):
        book, dim = BOOKS[name]()
        scenarios = stress_scenarios(dim, 8, seed=3)
        tagged = sweep_requests(book, scenarios, n_paths=N_PATHS)
        n = len(book)
        assert [lane for lane, _ in tagged] == (
            ["interactive"] * n + ["bulk"] * (n * len(scenarios)))
        assert tagged[n][1].name == f"stress-0-{book[0].name}"
        assert _keys_digest(r for _, r in tagged) == PINNED[name][4]

    def test_portfolio_delta_bits(self, name):
        book, _ = BOOKS[name]()
        with PricingService(cache=PriceCache(4096),
                            max_batch=len(book)) as service:
            deltas = portfolio_deltas(book, service=service, n_paths=N_PATHS)
        assert [float(d).hex() for d in deltas] == PINNED[name][5]


@pytest.mark.parametrize("args", sorted(PINNED_RISK_BOOKS))
def test_risk_book_request_keys(args):
    n, dim, seed, n_base = args
    book = risk_book(n, dim=dim, seed=seed, n_base=n_base)
    requests = [PricingRequest(w, engine="mc", n_paths=N_PATHS) for w in book]
    assert _keys_digest(requests) == PINNED_RISK_BOOKS[args]
    assert book[0].name == f"risk-base-{strike_strip(n_base, dim=dim)[0].name}"

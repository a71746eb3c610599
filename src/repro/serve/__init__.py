"""Throughput layer: batched pricing service, contract-hash cache, and the
shared-memory/chunked transport knobs that make streams of heterogeneous
pricing requests cheap to execute.

Three pieces, composed by :class:`~repro.serve.service.PricingService`:

* :mod:`repro.serve.batching` — :class:`PricingRequest` (one contract +
  engine settings) and its canonical :func:`request_key`;
* :mod:`repro.serve.cache` — :class:`PriceCache`, an LRU keyed by the
  same canonical SHA-256 contract hashes the verification corpus uses;
  hits are bitwise identical to recomputed misses;
* :mod:`repro.serve.service` — batch execution: ``price_many`` cuts a
  request list into ``max_batch`` slices, plans each slice's misses into
  strips (:func:`repro.batch.plan_batches`), runs one chunked map on any
  backend, exports metrics; plus the scenario-revaluation (shared-memory)
  path.

The layer is price-neutral by construction: batching, caching, chunking
and backend choice can never change a quote (enforced by the
``serve-batching`` determinism check in :mod:`repro.verify.determinism`).
"""

from repro.serve.batching import SERVE_ENGINES, PricingRequest, request_key
from repro.serve.cache import CacheEntry, PriceCache, stable_key
from repro.serve.service import (PriceQuote, PricingService, price_request,
                                 revalue_scenarios)

__all__ = [
    "SERVE_ENGINES",
    "PricingRequest",
    "request_key",
    "CacheEntry",
    "PriceCache",
    "stable_key",
    "PriceQuote",
    "PricingService",
    "price_request",
    "revalue_scenarios",
]

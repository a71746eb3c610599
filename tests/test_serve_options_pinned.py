"""The serve→gateway path's and the portfolio task farm's options, pinned
by name.

A new keyword argument on one of these constructors or drivers has to be
added here on purpose, so an option that only tests set cannot come back
silently. Likewise the service has one way in — ``price_many`` — and no
streaming front beside it.
"""

import dataclasses
import inspect

import pytest

import repro.serve
from repro.engine import PortfolioPricer
from repro.gateway import (AdmissionController, GatewayCore, ShardedGateway,
                           run_closed_loop, run_schedule)
from repro.serve import PricingService

PINNED = {
    "PricingService.__init__": (
        PricingService.__init__,
        ("backend", "cache", "max_batch", "chunksize", "batched",
         "min_strip", "metrics", "ledger")),
    "ShardedGateway.__init__": (
        ShardedGateway.__init__,
        ("n_shards", "max_queue", "cache_capacity", "service_hint_s",
         "metrics", "ledger")),
    "GatewayCore.__init__": (
        GatewayCore.__init__,
        ("n_shards", "max_queue", "service_hint_s", "metrics")),
    "run_schedule": (
        run_schedule,
        ("schedule", "n_shards", "cost", "duration_s", "max_queue", "priced",
         "metrics", "ledger")),
    "run_closed_loop": (
        run_closed_loop,
        ("cfg", "n_shards", "cost", "n_clients", "think_s", "max_queue",
         "priced", "metrics", "ledger")),
    "PortfolioPricer.__init__": (
        PortfolioPricer.__init__,
        ("n_paths", "schedule", "seed")),
}


def _params(fn) -> tuple[str, ...]:
    return tuple(name for name in inspect.signature(fn).parameters
                 if name != "self")


@pytest.mark.parametrize("name", sorted(PINNED))
def test_parameter_names(name):
    fn, expected = PINNED[name]
    assert _params(fn) == expected


def test_admission_controller_fields():
    assert tuple(f.name for f in dataclasses.fields(AdmissionController)) \
        == ("max_queue",)


def test_price_many_is_the_one_entry():
    assert _params(PricingService.price_many) == ("requests",)
    for gone in ("submit", "poll", "flush", "drain"):
        assert not hasattr(PricingService, gone), gone
    for gone in ("Batch", "Batcher"):
        assert not hasattr(repro.serve, gone), gone

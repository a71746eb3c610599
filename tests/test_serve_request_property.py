"""A request that constructs, prices — and prices alike on every path.

Over the whole request space of :func:`tests.strategies.pricing_requests`
the door either refuses a request with a :class:`ValidationError`, or its
engine returns a finite price and a finite standard error: no request
fails after admission. An admitted request also quotes the same bits
fused into a strip beside a companion contract and through a one-shard
gateway as it does priced alone.
"""

import asyncio
import dataclasses
import math

from hypothesis import given, settings

from repro.errors import ValidationError
from repro.gateway import GatewayRequest, ShardedGateway
from repro.serve.batching import PricingRequest
from repro.serve.service import PricingService, price_request
from repro.verify.batched import decoy_payoff
from repro.verify.determinism import float_bits
from tests.strategies import pricing_requests


async def _through_a_gateway(request: PricingRequest):
    async with ShardedGateway(n_shards=1) as gateway:
        return await gateway.submit(
            GatewayRequest(request=request, deadline_s=3600.0))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pricing_requests())
def test_a_request_that_constructs_prices(kwargs):
    try:
        request = PricingRequest(**kwargs)
    except ValidationError:
        return
    alone = price_request(request)
    assert math.isfinite(alone.price) and math.isfinite(alone.stderr)
    workload = kwargs["workload"]
    companion = PricingRequest(**{**kwargs, "workload": dataclasses.replace(
        workload, payoff=decoy_payoff(workload.payoff))})
    with PricingService(min_strip=2) as service:
        fused = service.price_many([request, companion])[0]
    gated = asyncio.run(_through_a_gateway(request))
    bits = [float_bits(alone.price), float_bits(alone.stderr)]
    for quote in (fused, gated):
        assert [float_bits(quote.price), float_bits(quote.stderr)] == bits

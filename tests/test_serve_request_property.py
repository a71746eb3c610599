"""A request that constructs, prices.

Over the whole request space of :func:`tests.strategies.pricing_requests`
the door either refuses a request with a :class:`ValidationError`, or its
engine returns a finite price and a finite standard error: no request
fails after admission.
"""

import math

from hypothesis import given, settings

from repro.errors import ValidationError
from repro.serve.batching import PricingRequest
from repro.serve.service import price_request
from tests.strategies import pricing_requests


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pricing_requests())
def test_a_request_that_constructs_prices(kwargs):
    try:
        request = PricingRequest(**kwargs)
    except ValidationError:
        return
    quote = price_request(request)
    assert math.isfinite(quote.price) and math.isfinite(quote.stderr)

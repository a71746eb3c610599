"""The pricing service has one way in — ``price_many`` — and no streaming
front beside it; the admission controller holds one field.

Which keyword options the serve→gateway constructors and drivers take is
gated by the option walk in ``tests/test_module_reachability.py``: an
option that only tests set cannot come back there.
"""

import dataclasses
import inspect

import repro.serve
from repro.gateway import AdmissionController
from repro.serve import PricingService


def _params(fn) -> tuple[str, ...]:
    return tuple(name for name in inspect.signature(fn).parameters
                 if name != "self")


def test_admission_controller_fields():
    assert tuple(f.name for f in dataclasses.fields(AdmissionController)) \
        == ("max_queue",)


def test_price_many_is_the_one_entry():
    assert _params(PricingService.price_many) == ("requests",)
    for gone in ("submit", "poll", "flush", "drain"):
        assert not hasattr(PricingService, gone), gone
    for gone in ("Batch", "Batcher"):
        assert not hasattr(repro.serve, gone), gone

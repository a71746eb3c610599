"""A request the lattice or PDE engine could never price is refused when
it is built, with a typed :class:`ValidationError` — so
``GatewayCore.offer`` never holds it, and no shard worker is the first to
find out."""

import pytest

from repro.errors import ValidationError
from repro.gateway import GatewayCore, GatewayRequest
from repro.market.gbm import MultiAssetGBM
from repro.payoffs import AsianArithmeticCall, Call
from repro.serve.batching import PricingRequest
from repro.workloads import basket_workload, spread_workload
from repro.workloads.generators import Workload

_TWO = spread_workload().model
_ASIAN = Workload("asian-d2", _TWO, AsianArithmeticCall(100.0, dim=2), 1.0)
_ONE = Workload("call-d1", MultiAssetGBM.single(100.0, 0.2, 0.05), Call(100.0),
                1.0)

#: case -> (request factory, message pattern)
REFUSED = {
    "pde-three-assets": (
        lambda: PricingRequest(basket_workload(3), engine="pde", grid=8,
                               steps=4),
        "2-asset models, got dim=3"),
    "pde-one-asset": (
        lambda: PricingRequest(_ONE, engine="pde", grid=8, steps=4),
        "2-asset models, got dim=1"),
    "pde-path-dependent": (
        lambda: PricingRequest(_ASIAN, engine="pde", grid=8, steps=4),
        "AsianArithmeticCall is path-dependent"),
    "lattice-path-dependent": (
        lambda: PricingRequest(_ASIAN, engine="lattice", steps=8),
        "AsianArithmeticCall is path-dependent"),
    "lattice-over-node-limit": (
        lambda: PricingRequest(basket_workload(4), engine="lattice",
                               steps=100),
        "node limit"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_at_construction(case):
    build, message = REFUSED[case]
    with pytest.raises(ValidationError, match=message):
        build()


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_the_gateway_never_holds_it(case):
    build, message = REFUSED[case]
    core = GatewayCore(2, max_queue=8, service_hint_s=0.05)
    with pytest.raises(ValidationError, match=message):
        core.offer(GatewayRequest(build(), deadline_s=1.0), 0.0)
    assert len(core.decisions) == 0 and core.admitted == 0


def test_what_the_engines_can_price_is_still_admitted():
    PricingRequest(spread_workload(), engine="pde", grid=8, steps=4)
    # Path-dependent payoffs stay Monte Carlo's business.
    PricingRequest(_ASIAN, engine="mc", n_paths=100, steps=8)
    # Exactly at the node limit is inside it (nothing is priced here).
    PricingRequest(_ONE, engine="lattice", steps=80_000_000 - 1)
    with pytest.raises(ValidationError, match="node limit"):
        PricingRequest(_ONE, engine="lattice", steps=80_000_000)

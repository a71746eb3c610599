"""A request its engine could never price is refused when it is built,
with a typed :class:`ValidationError` — so
``GatewayCore.offer`` never holds it, and no shard worker is the first to
find out."""

import dataclasses
import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.gateway import GatewayCore, GatewayRequest
from repro.market.gbm import MultiAssetGBM
from repro.payoffs import AsianArithmeticCall, BasketCall, Call, CallOnMax, Put
from repro.serve.batching import PricingRequest, request_key
from repro.workloads import basket_workload, spread_workload
from repro.workloads.generators import Workload

_TWO = spread_workload().model
_ASIAN = Workload("asian-d2", _TWO, AsianArithmeticCall(100.0, dim=2), 1.0)
_ONE = Workload("call-d1", MultiAssetGBM.single(100.0, 0.2, 0.05), Call(100.0),
                1.0)
#: A one-asset put and a four-asset basket on the two-asset market.
_PUT_ON_TWO = Workload("put-on-d2", _TWO, Put(100.0), 1.0)
_BASKET4_ON_TWO = Workload("basket4-on-d2", _TWO,
                           BasketCall([1, 1, 1, 1], 100.0), 1.0)


def _basket_d3(rho: float) -> Workload:
    model = MultiAssetGBM.equicorrelated(3, 100.0, 0.2, 0.05, rho)
    return Workload("basket-d3", model, BasketCall([1, 1, 1], 100.0), 1.0)


#: Almost no vol: the drift term alone pushes a branch below zero.
_STILL = Workload("max-d2", MultiAssetGBM.equicorrelated(2, 100.0, 1e-4, 0.05,
                                                         0.3),
                  CallOnMax(100.0), 1.0)

#: case -> (workload, request settings, message pattern)
REFUSED = {
    "pde-three-assets": (
        basket_workload(3), dict(engine="pde", grid=8, steps=4),
        "2-asset models, got dim=3"),
    "pde-one-asset": (
        _ONE, dict(engine="pde", grid=8, steps=4),
        "2-asset models, got dim=1"),
    "pde-path-dependent": (
        _ASIAN, dict(engine="pde", grid=8, steps=4),
        "AsianArithmeticCall is path-dependent"),
    "lattice-path-dependent": (
        _ASIAN, dict(engine="lattice", steps=8),
        "AsianArithmeticCall is path-dependent"),
    "lsm-path-dependent": (
        _ASIAN, dict(engine="lsm", n_paths=100, steps=8),
        "AsianArithmeticCall is path-dependent"),
    "pde-payoff-dim-1-on-two-assets": (
        _PUT_ON_TWO, dict(engine="pde", grid=8, steps=4),
        "payoff dim 1 does not match model dim 2"),
    "mc-payoff-dim-1-on-two-assets": (
        _PUT_ON_TWO, dict(engine="mc", n_paths=100),
        "payoff dim 1 does not match model dim 2"),
    "lattice-payoff-dim-4-on-two-assets": (
        _BASKET4_ON_TWO, dict(engine="lattice", steps=8),
        "payoff dim 4 does not match model dim 2"),
    "lattice-over-node-limit": (
        basket_workload(4), dict(engine="lattice", steps=100),
        "node limit"),
    "lattice-beg-rho-0.99": (
        _basket_d3(0.99), dict(engine="lattice", steps=8),
        r"BEG branch probabilities outside \[0, 1\]"),
    "lattice-beg-rho-minus-0.45": (
        _basket_d3(-0.45), dict(engine="lattice", steps=2),
        r"BEG branch probabilities outside \[0, 1\]"),
    "lattice-beg-vol-1e-4": (
        _STILL, dict(engine="lattice", steps=8),
        r"BEG branch probabilities outside \[0, 1\]"),
    "mc-more-ranks-than-paths": (
        basket_workload(2), dict(engine="mc", n_paths=2, p=8),
        r"more ranks \(p=8\) than paths \(n_paths=2\)"),
    "lsm-more-ranks-than-paths": (
        _ONE, dict(engine="lsm", n_paths=2, steps=4, p=8),
        r"more ranks \(p=8\) than paths \(n_paths=2\)"),
    "mc-one-path": (
        basket_workload(2), dict(engine="mc", n_paths=1),
        "the mc engine needs at least 2 paths for a standard error"),
    "lsm-one-path": (
        _ONE, dict(engine="lsm", n_paths=1, steps=4),
        "the lsm engine needs at least 2 paths for a standard error"),
}
#: Expiries no engine can price.
for _engine, _settings in (("mc", dict(n_paths=100)),
                           ("lattice", dict(steps=8)),
                           ("lsm", dict(n_paths=100, steps=4)),
                           ("pde", dict(grid=8, steps=4))):
    for _expiry in (0, -1, math.nan, math.inf):
        REFUSED[f"{_engine}-expiry-{_expiry}"] = (
            dataclasses.replace(spread_workload(), expiry=_expiry),
            dict(engine=_engine, **_settings),
            "expiry must be a finite positive number")
for _grid in (1, 2, 3, 5):
    REFUSED[f"pde-grid-{_grid}"] = (
        spread_workload(), dict(engine="pde", grid=_grid, steps=4),
        f"even grid of at least 4 intervals per axis, got n_space={_grid}")
REFUSED["mc-path-dependent-without-steps"] = (
    _ASIAN, dict(engine="mc", n_paths=100),
    r"AsianArithmeticCall is path-dependent: the mc engine needs steps")


def _build(case: str) -> PricingRequest:
    workload, settings, _ = REFUSED[case]
    return PricingRequest(workload, **settings)


def _unadmitted(workload, settings) -> PricingRequest:
    """The request's fields, set without running its admission check."""
    request = object.__new__(PricingRequest)
    fields = {f.name: f.default for f in dataclasses.fields(PricingRequest)
              if f.default is not dataclasses.MISSING}
    for name, value in {**fields, "workload": workload, **settings}.items():
        object.__setattr__(request, name, value)
    return request


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_at_construction(case):
    with pytest.raises(ValidationError, match=REFUSED[case][2]):
        _build(case)


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_the_gateway_never_holds_it(case):
    core = GatewayCore(2, max_queue=8, service_hint_s=0.05)
    with pytest.raises(ValidationError, match=REFUSED[case][2]):
        core.offer(GatewayRequest(_build(case), deadline_s=1.0), 0.0)
    assert len(core.decisions) == 0 and core.admitted == 0


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_the_engine_refuses_it_with_the_doors_message(case):
    """Door and engine run one rule list: the pricer the serve hook builds
    for the same settings refuses the request with the same message."""
    from repro.serve.service import price_request

    workload, settings, _ = REFUSED[case]
    with pytest.raises(ValidationError) as door:
        PricingRequest(workload, **settings)
    with pytest.raises(ValidationError) as engine:
        price_request(_unadmitted(workload, settings))
    assert str(engine.value) == str(door.value)


def test_what_the_engines_can_price_is_still_admitted():
    PricingRequest(spread_workload(), engine="pde", grid=8, steps=4)
    # Path-dependent payoffs stay Monte Carlo's business.
    PricingRequest(_ASIAN, engine="mc", n_paths=100, steps=8)
    # Exactly at the node limit is inside it (nothing is priced here).
    PricingRequest(_ONE, engine="lattice", steps=80_000_000 - 1)
    with pytest.raises(ValidationError, match="node limit"):
        PricingRequest(_ONE, engine="lattice", steps=80_000_000)


@pytest.mark.parametrize("engine,steps", [("mc", None), ("lsm", 4)])
def test_as_many_ranks_as_paths_still_prices(engine, steps):
    from repro.serve.service import price_request

    request = PricingRequest(_ONE, engine=engine, n_paths=4, steps=steps, p=4)
    assert math.isfinite(price_request(request).price)


def test_a_feasible_lattice_request_still_prices():
    from repro.serve.service import price_request

    request = PricingRequest(_basket_d3(0.3), engine="lattice", steps=8)
    assert math.isfinite(price_request(request).price)


def test_an_infeasible_lattice_chains_the_engine_error():
    from repro.errors import StabilityError

    case = "lattice-beg-rho-0.99"
    with pytest.raises(ValidationError, match=REFUSED[case][2]) as info:
        _build(case)
    assert isinstance(info.value.__cause__, StabilityError)


#: Seeds that are not integers in [0, 2**64): Philox would price each like
#: some integer seed, under a key of its own.
BAD_SEEDS = [1.0, 1.5, True, False, float("nan"), np.float64(1.0), -1,
             np.int64(-1), 2 ** 64, 2 ** 64 + 1, "1", None]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_a_seed_outside_the_64_bit_integers_is_refused(seed):
    with pytest.raises(ValidationError, match=r"seed must be an integer"):
        PricingRequest(_ONE, n_paths=100, seed=seed)


@pytest.mark.parametrize("seed", [np.int64(1), np.uint64(2 ** 64 - 1),
                                  np.int32(7)], ids=repr)
def test_an_integer_seed_is_stored_and_keyed_as_a_plain_int(seed):
    request = PricingRequest(_ONE, n_paths=100, seed=seed)
    assert type(request.seed) is int and request.seed == seed
    assert request_key(request) == request_key(
        PricingRequest(_ONE, n_paths=100, seed=int(seed)))

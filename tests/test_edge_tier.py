"""Numerical edges of the request space, at fixed values.

Each case is a request the door admits at an edge — a near-zero expiry,
one or two paths split over as many ranks, a correlation pushed to ±0.999
and repaired, the smallest PDE grid, a lattice at its node limit — and
what it must return: a finite price inside the case's band, or a typed
:class:`ValidationError` where the door refuses it. Run as the CI ``edge``
lane (``-m edge``).
"""

import math

import numpy as np
import pytest

from repro.analytic.black_scholes import bs_price
from repro.engine.lattice import ParallelLatticePricer
from repro.errors import ValidationError
from repro.lattice.beg import _MAX_NODES
from repro.market.gbm import MultiAssetGBM
from repro.payoffs import BasketCall, CallOnMax
from repro.risk.scenarios import repair_correlation
from repro.serve.batching import PricingRequest
from repro.serve.service import price_request
from repro.workloads import basket_workload, spread_workload
from repro.workloads.generators import Workload

pytestmark = pytest.mark.edge

_SETTINGS = {
    "mc": dict(n_paths=2_000, seed=7),
    "lattice": dict(steps=8),
    "pde": dict(grid=8, steps=4),
    "lsm": dict(n_paths=200, steps=4, seed=7),
}


def _quote(workload, engine, **settings):
    quote = price_request(PricingRequest(workload, engine=engine, **settings))
    assert math.isfinite(quote.price) and math.isfinite(quote.stderr)
    assert quote.stderr >= 0.0
    return quote


@pytest.mark.parametrize("engine", sorted(_SETTINGS))
def test_a_near_zero_expiry_prices_the_intrinsic_value(engine):
    model = MultiAssetGBM([100.0, 95.0], [0.2, 0.3], 0.05,
                          correlation=np.array([[1.0, 0.4], [0.4, 1.0]]))
    workload = Workload("max-call-T0", model, CallOnMax(90.0), 1e-12)
    quote = _quote(workload, engine, **_SETTINGS[engine])
    assert quote.price == pytest.approx(10.0, abs=1e-4)


@pytest.mark.parametrize("n_paths", [1, 2])
@pytest.mark.parametrize("engine,steps", [("mc", None), ("lsm", 4)])
def test_one_or_two_paths_on_as_many_ranks(engine, steps, n_paths):
    quote = _quote(basket_workload(2), engine, n_paths=n_paths, p=n_paths,
                   steps=steps)
    assert 0.0 <= quote.price <= 200.0


@pytest.mark.parametrize("rho", [-0.999, 0.999])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("engine", ["mc", "lattice", "lsm"])
def test_a_correlation_near_one_is_priced_or_refused(engine, dim, rho):
    corr = np.full((dim, dim), rho)
    np.fill_diagonal(corr, 1.0)
    corr = repair_correlation(corr)
    assert corr.shape == (dim, dim)
    assert np.all(np.abs(corr) <= 1.0) and np.all(np.diag(corr) == 1.0)
    model = MultiAssetGBM([100.0] * dim, [0.25] * dim, 0.05, correlation=corr)
    workload = Workload(f"basket-rho{rho}", model,
                        BasketCall([1.0 / dim] * dim, 100.0), 1.0)
    try:
        PricingRequest(workload, engine=engine, **_SETTINGS[engine])
    except ValidationError as exc:
        # Only the BEG lattice has no tree for such a correlation.
        assert engine == "lattice" and "BEG branch probabilities" in str(exc)
        return
    quote = _quote(workload, engine, **_SETTINGS[engine])
    # Between the discounted forward's intrinsic value and the spot.
    assert 100.0 * (1.0 - math.exp(-0.05)) - 4.0 * quote.stderr \
        <= quote.price <= 100.0
    if rho > 0.0 and engine == "mc":
        # Perfectly correlated, the basket is one asset.
        single = bs_price(100.0, 100.0, 0.25, 0.05, 1.0)
        assert abs(quote.price - single) <= 4.0 * quote.stderr


def test_the_smallest_pde_grid_prices_inside_the_bounds():
    workload = spread_workload()
    quote = _quote(workload, "pde", grid=4)
    assert 0.0 <= quote.price <= float(workload.model.spots[0])
    with pytest.raises(ValidationError, match="even grid of at least 4"):
        PricingRequest(workload, engine="pde", grid=2)


def _last_steps(dim: int) -> int:
    """The largest step count whose ``(steps + 1) ** dim`` leaves fit."""
    steps = int(_MAX_NODES ** (1.0 / dim))
    while (steps + 1) ** dim > _MAX_NODES:
        steps -= 1
    return steps


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_a_lattice_one_step_either_side_of_the_node_limit(dim):
    steps = _last_steps(dim)
    workload = basket_workload(dim)
    # Inside: admitted, and not priced here (up to 80 M leaves).
    PricingRequest(workload, engine="lattice", steps=steps)
    with pytest.raises(ValidationError, match="node limit"):
        PricingRequest(workload, engine="lattice", steps=steps + 1)
    # The engine refuses it by the same rule before it allocates a node.
    with pytest.raises(ValidationError, match="node limit"):
        ParallelLatticePricer(steps + 1).price(workload.model, workload.payoff,
                                               workload.expiry, 1)

"""Shared hypothesis strategies over the request space.

:func:`pricing_requests` draws the keyword arguments of one
:class:`~repro.serve.batching.PricingRequest` from the whole space a
caller can hand the door: every serve engine, a market of one to three
assets whose correlation is pushed towards ±1 and repaired, payoffs of the
market's dimension or of another one, path-dependent or not, and edge
values (zero, negative and non-finite expiries, tiny and huge counts, bad
seeds, odd PDE grids). Budgets stay small — at most 64 paths, 8 steps, a
12-interval grid — so one draw prices in milliseconds.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from repro.market.gbm import MultiAssetGBM
from repro.payoffs import (AsianArithmeticCall, BasketCall, BasketPut, Call,
                           CallOnMax, GeometricBasketCall, Put, SpreadCall)
from repro.risk.scenarios import repair_correlation
from repro.serve.batching import SERVE_ENGINES
from repro.workloads.generators import Workload

__all__ = ["markets", "payoffs", "pricing_requests"]

#: Expiries no engine can price, then tiny ones.
EDGE_EXPIRIES = (0.0, -1.0, math.nan, math.inf, -math.inf, 1e-12, 1e-6)


@st.composite
def markets(draw) -> MultiAssetGBM:
    """A GBM market of one to three assets; off-diagonal correlations
    reach ±0.999 and pass through
    :func:`~repro.risk.scenarios.repair_correlation`."""
    d = draw(st.integers(1, 3))
    rho = draw(st.sampled_from([-0.999, -0.5, 0.0, 0.3, 0.999])
               | st.floats(-0.999, 0.999))
    corr = np.full((d, d), rho)
    np.fill_diagonal(corr, 1.0)
    spots = draw(st.lists(st.floats(50.0, 150.0), min_size=d, max_size=d))
    vols = draw(st.lists(st.sampled_from([1e-4, 0.05, 0.25, 0.8])
                         | st.floats(0.01, 1.0), min_size=d, max_size=d))
    rate = draw(st.sampled_from([0.0, 0.05]) | st.floats(-0.02, 0.1))
    return MultiAssetGBM(spots, vols, rate, correlation=repair_correlation(corr))


@st.composite
def payoffs(draw, dim: int):
    """A payoff of ``dim`` assets, or now and then of another dimension."""
    d = draw(st.sampled_from([dim] * 4 + [1, 2, 3]))
    strike = draw(st.floats(60.0, 140.0))
    kinds = [lambda: BasketCall([1.0 / d] * d, strike),
             lambda: BasketPut([1.0 / d] * d, strike),
             lambda: GeometricBasketCall([1.0 / d] * d, strike),
             lambda: AsianArithmeticCall(strike, dim=d)]
    if d == 1:
        kinds += [lambda: Call(strike), lambda: Put(strike)]
    else:
        kinds += [lambda: CallOnMax(strike, dim=d)]
    if d == 2:
        kinds += [lambda: SpreadCall(strike / 20.0)]
    return draw(st.sampled_from(kinds))()


#: Per field, values the door must refuse (one field is drawn from these
#: in about one request of three).
BAD_FIELDS = {
    "engine": ("bogus",),
    "n_paths": (0, -1, 2.5),
    "steps": (0, -3),
    "seed": (-1, 2 ** 64, 1.5, True),
    "p": (0, 65),
    "grid": (0, -2),
}


@st.composite
def pricing_requests(draw) -> dict:
    """Keyword arguments of one :class:`PricingRequest` — admissible or
    not; the door decides."""
    model = draw(markets())
    payoff = draw(payoffs(model.dim))
    expiry = draw(st.sampled_from((None,) * 14 + EDGE_EXPIRIES))
    if expiry is None:
        expiry = draw(st.floats(0.05, 3.0))
    kwargs = dict(
        workload=Workload("drawn", model, payoff, expiry),
        engine=draw(st.sampled_from(SERVE_ENGINES)),
        n_paths=draw(st.integers(1, 64)),
        steps=draw(st.sampled_from((None, 1, 2, 4, 8)) | st.integers(1, 8)),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
        p=draw(st.integers(1, 4)),
        grid=draw(st.sampled_from((4, 6, 8, 12)) | st.integers(1, 12)),
    )
    bad = draw(st.sampled_from((None,) * 12 + tuple(BAD_FIELDS)))
    if bad is not None:
        kwargs[bad] = draw(st.sampled_from(BAD_FIELDS[bad]))
    return kwargs

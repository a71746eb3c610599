"""The rainbow payoffs take row extremes column by column; they must give
the values of the ``max(axis=1)`` / ``min(axis=1)`` forms bit for bit.

Max and min are exact, so the column-wise ``np.maximum`` /
``np.minimum`` cannot round differently: the check runs at d ∈
{2, 3, 5, 21} on rows full of ties, signed zeros and ±inf, and a row
holding a NaN must price to NaN.
"""

import numpy as np
import pytest

from repro.payoffs import CallOnMax, CallOnMin, PutOnMax, PutOnMin

STRIKE = 100.0

REFERENCES = {
    CallOnMax: lambda p: np.maximum(p.max(axis=1) - STRIKE, 0.0),
    CallOnMin: lambda p: np.maximum(p.min(axis=1) - STRIKE, 0.0),
    PutOnMax: lambda p: np.maximum(STRIKE - p.max(axis=1), 0.0),
    PutOnMin: lambda p: np.maximum(STRIKE - p.min(axis=1), 0.0),
}

#: Values rows are drawn from: ties with each other and with the strike,
#: both zeros and both infinities.
POOL = np.array([0.0, -0.0, 80.0, 100.0, 100.0, 120.0, np.inf, -np.inf,
                 1e-300, 5e-324, 1e300])


def _prices(d, seed):
    rng = np.random.default_rng(seed)
    rows = 4_000
    p = rng.lognormal(np.log(100.0), 0.3, size=(rows, d))
    pooled = rng.random((rows, d)) < 0.5
    p[pooled] = rng.choice(POOL, size=int(pooled.sum()))
    p[:50] = rng.choice(POOL, size=(50, d))     # rows of pool values only
    p[50:60] = p[50:60, :1]                     # every column tied
    p[60:70] = 0.0
    p[70:80] = -0.0
    nan_rows = rng.random(rows) < 0.05
    nan_rows[:80] = False
    p[nan_rows, rng.integers(0, d, size=int(nan_rows.sum()))] = np.nan
    p[80, -1] = np.nan                          # a NaN in the last column
    p[81, 0] = np.nan                           # ... and in the first
    return p


@pytest.mark.parametrize("kind", sorted(REFERENCES, key=lambda k: k.__name__),
                         ids=lambda k: k.__name__)
@pytest.mark.parametrize("d", [2, 3, 5, 21])
def test_column_extremes_match_axis_reductions(kind, d):
    prices = _prices(d, seed=d)
    got = kind(STRIKE, d).terminal(prices)
    want = REFERENCES[kind](prices)
    has_nan = np.isnan(prices).any(axis=1)
    assert has_nan[80] and has_nan[81]
    assert np.array_equal(np.isnan(got), has_nan)
    assert np.array_equal(np.isnan(want), has_nan)
    assert got[~has_nan].tobytes() == want[~has_nan].tobytes()

"""Closed-form prices used as accuracy baselines (experiment T1) and as
control variates for variance reduction (experiment T5).

All formulas are classical results re-derived and implemented here:
Black–Scholes–Merton (1973), Margrabe's exchange option (1978), Stulz's
two-asset min/max rainbow (1982), Reiner–Rubinstein single barriers (1991),
the lognormal geometric basket / discrete geometric Asian, Kirk's spread
approximation (1995), Merton's jump-diffusion series, Heston's
characteristic-function price and power options.
"""

from repro.analytic.black_scholes import (
    bs_price,
    bs_greeks,
    bs_implied_vol,
    BSGreeks,
)
from repro.analytic.bivariate import bvn_cdf, bvn_cdf_quadrature
from repro.analytic.margrabe import margrabe_price
from repro.analytic.geometric_basket import geometric_basket_price
from repro.analytic.stulz import rainbow_two_asset_price
from repro.analytic.barrier import barrier_price
from repro.analytic.asian import geometric_asian_price
from repro.analytic.kirk import kirk_spread_price
from repro.analytic.merton import merton_price
from repro.analytic.heston import heston_price, heston_charfn
from repro.analytic.power import power_option_price

__all__ = [
    "power_option_price",
    "merton_price",
    "heston_price",
    "heston_charfn",
    "bs_price",
    "bs_greeks",
    "bs_implied_vol",
    "BSGreeks",
    "bvn_cdf",
    "bvn_cdf_quadrature",
    "margrabe_price",
    "geometric_basket_price",
    "rainbow_two_asset_price",
    "barrier_price",
    "geometric_asian_price",
    "kirk_spread_price",
]

"""Market-model substrate: correlation tools, the correlated multi-asset
geometric Brownian motion model that all three pricing engines (MC,
lattice, PDE) consume, and the Merton and Heston models the MC engine
prices beyond GBM."""

from repro.market.correlation import (
    cholesky_factor,
    constant_correlation,
    random_correlation,
    is_positive_semidefinite,
)
from repro.market.gbm import MultiAssetGBM
from repro.market.merton import MertonJumpDiffusion, sample_poisson
from repro.market.heston import HestonModel

__all__ = [
    "MertonJumpDiffusion",
    "sample_poisson",
    "HestonModel",
    "cholesky_factor",
    "constant_correlation",
    "random_correlation",
    "is_positive_semidefinite",
    "MultiAssetGBM",
]

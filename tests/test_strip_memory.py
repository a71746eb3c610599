"""Memory guard on the fused strip kernels: a strip never holds all of its
contracts' per-contract arrays at once.

A Monte Carlo rank reduces each contract's discounted samples to its
``SampleStats`` before the next contract's vector exists, so the peak
traced bytes of one 250-contract rank stay far below the 250 sample
vectors (20 MB at 10 000 paths) a strip that materialised them all would
hold. The lattice strip is walked in contract blocks, so its peak stays
below one level-``steps`` tensor stacked over the whole 128-contract
strip (4.3 MB at 64 steps and two assets).

One plain MC rank at the scaling benchmark's shape (125 000 paths on a
4-asset basket) holds its normals plus one correlated, in-place
transformed ``(n, d)`` array, not the four ``(n, d)`` temporaries of an
out-of-place affine step.
"""

import tracemalloc

import numpy as np
import pytest

from repro.batch.kernels import beg_strip_prices, strip_partial
from repro.mc.variance_reduction import Antithetic, PlainMC
from repro.payoffs import CallOnMax
from repro.rng import Philox4x32
from repro.workloads import basket_workload, rainbow_workload, strike_strip

MC_CONTRACTS = 250
MC_PATHS = 10_000
LATTICE_CONTRACTS = 128
LATTICE_STEPS = 64
RANK_PATHS = 125_000
RANK_DIM = 4


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("technique", [PlainMC(), Antithetic()],
                         ids=["plain", "antithetic"])
def test_mc_strip_peak_is_a_few_contracts(technique):
    ladder = strike_strip(MC_CONTRACTS, dim=2)
    payoffs = [w.payoff for w in ladder]
    peak = _peak_bytes(lambda: strip_partial(
        technique, ladder[0].model, payoffs, ladder[0].expiry, MC_PATHS,
        Philox4x32(5)))
    all_vectors = MC_CONTRACTS * MC_PATHS * 8
    assert peak < all_vectors / 10


@pytest.mark.parametrize("american", [False, True])
def test_lattice_strip_peak_is_below_one_strip_tensor(american):
    w = rainbow_workload()
    payoffs = [CallOnMax(float(k))
               for k in np.linspace(80.0, 120.0, LATTICE_CONTRACTS)]
    peak = _peak_bytes(lambda: beg_strip_prices(
        w.model, payoffs, w.expiry, LATTICE_STEPS, american=american))
    strip_leaf_tensor = (LATTICE_CONTRACTS * (LATTICE_STEPS + 1) ** 2) * 8
    assert peak < strip_leaf_tensor


def test_mc_rank_transforms_its_normals_in_place():
    w = basket_workload(RANK_DIM)
    peak = _peak_bytes(lambda: PlainMC().partial(
        w.model, w.payoff, w.expiry, RANK_PATHS, Philox4x32(5)))
    assert peak <= 2.6 * RANK_PATHS * RANK_DIM * 8

"""Pinned bits of the lattice strip: prices and the simulated clock.

Every strip member's price must carry the bits of the sequential
:func:`repro.lattice.beg_price` (the reference that stays), and the fused
run's ``sim_time`` / ``compute_time`` / ``comm_time`` are pinned as
``float.hex()`` literals recorded before the strip's value tensors were
stacked — a change to how the induction walks the strip may move neither.
Strip lengths 1, 2 and 128 cover the single-request path, the smallest
real strip and the ``book_batch`` ladder; p ∈ {1, 2, 3} covers every slab
split the levels of these lattices see. ``TestStackedStep`` holds the
mechanism itself to the same standard, slab by slab.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.kernels import beg_strip_prices
from repro.engine import ParallelLatticePricer
from repro.engine.runner import run_strip
from repro.errors import ValidationError
from repro.lattice import BEGLattice, beg_price
from repro.market.gbm import MultiAssetGBM
from repro.payoffs import CallOnMax, PutOnMin

EXPIRY = 1.0
STEPS = {2: 20, 3: 10}
LENGTHS = (1, 2, 128)

# (dim, american, p, contracts) -> (sim_time, compute_time, comm_time)
PINNED_TIMES = {
    (2, False, 1, 1): (
        "0x1.51ef60f664f6bp-12", "0x1.51ef60f664f6bp-12",
        "0x0.0p+0"),
    (2, False, 1, 2): (
        "0x1.51ef60f664f6bp-11", "0x1.51ef60f664f6bp-11",
        "0x0.0p+0"),
    (2, False, 1, 128): (
        "0x1.51ef60f664f6bp-5", "0x1.51ef60f664f6bp-5",
        "0x0.0p+0"),
    (2, False, 2, 1): (
        "0x1.276afdfac2289p-9", "0x1.5e2eb47364a6ap-13",
        "0x1.118812b38bde2p-9"),
    (2, False, 2, 2): (
        "0x1.4223660ba2a08p-9", "0x1.5e2eb47364a6ap-12",
        "0x1.165d8f7d360bbp-9"),
    (2, False, 2, 128): (
        "0x1.cd1cd3cb43b5cp-6", "0x1.5e2eb47364a6ap-6",
        "0x1.bbb87d5f7c3c6p-8"),
    (2, False, 3, 1): (
        "0x1.271fd486aa7eap-9", "0x1.e0eb3ccf69345p-14",
        "0x1.18187aa02f350p-9"),
    (2, False, 3, 2): (
        "0x1.3aff5a68ac3bep-9", "0x1.e0eb3ccf69345p-13",
        "0x1.1cf0a69bb5a8ap-9"),
    (2, False, 3, 128): (
        "0x1.606067f4b0ec7p-6", "0x1.e0eb3ccf69345p-7",
        "0x1.bfab2633f1492p-8"),
    (2, True, 1, 1): (
        "0x1.21581469189d6p-11", "0x1.21581469189d6p-11",
        "0x0.0p+0"),
    (2, True, 1, 2): (
        "0x1.21581469189d6p-10", "0x1.21581469189d6p-10",
        "0x0.0p+0"),
    (2, True, 1, 128): (
        "0x1.21581469189d6p-4", "0x1.21581469189d6p-4",
        "0x0.0p+0"),
    (2, True, 2, 1): (
        "0x1.36fd4235849c3p-9", "0x1.2ba97c0fc5f0bp-12",
        "0x1.118812b38bde2p-9"),
    (2, True, 2, 2): (
        "0x1.6147ee812787ep-9", "0x1.2ba97c0fc5f0bp-11",
        "0x1.165d8f7d360bbp-9"),
    (2, True, 2, 128): (
        "0x1.63208bbbb5783p-5", "0x1.2ba97c0fc5f0bp-5",
        "0x1.bbb87d5f7c3c6p-8"),
    (2, True, 3, 1): (
        "0x1.31ea07f110231p-9", "0x1.9d18d50e0ee17p-13",
        "0x1.18187aa02f350p-9"),
    (2, True, 3, 2): (
        "0x1.5093c13d7784cp-9", "0x1.9d18d50e0ee17p-12",
        "0x1.1cf0a69bb5a8ap-9"),
    (2, True, 3, 128): (
        "0x1.0681cf4d859a1p-5", "0x1.9d18d50e0ee17p-6",
        "0x1.bfab2633f1492p-8"),
    (3, False, 1, 1): (
        "0x1.6a3c5ed5f9465p-11", "0x1.6a3c5ed5f9465p-11",
        "0x0.0p+0"),
    (3, False, 1, 2): (
        "0x1.6a3c5ed5f9465p-10", "0x1.6a3c5ed5f9465p-10",
        "0x0.0p+0"),
    (3, False, 1, 128): (
        "0x1.6a3c5ed5f9465p-4", "0x1.6a3c5ed5f9465p-4",
        "0x0.0p+0"),
    (3, False, 2, 1): (
        "0x1.88a657423127fp-10", "0x1.80c9132edbe0ap-12",
        "0x1.287412767a2fdp-10"),
    (3, False, 2, 2): (
        "0x1.fe0c5fdfb98e9p-10", "0x1.80c9132edbe0ap-11",
        "0x1.3da7d6484b9e4p-10"),
    (3, False, 2, 128): (
        "0x1.de3224eb46e06p-5", "0x1.80c9132edbe0ap-5",
        "0x1.75a446f1abff4p-7"),
    (3, False, 3, 1): (
        "0x1.79cd4b77cd970p-10", "0x1.10e1a4a032e5ep-12",
        "0x1.3594e24fc0dd9p-10"),
    (3, False, 3, 2): (
        "0x1.d33ed6d5644b1p-10", "0x1.10e1a4a032e5ep-11",
        "0x1.4ace04854ad82p-10"),
    (3, False, 3, 128): (
        "0x1.6ec90b772c875p-5", "0x1.10e1a4a032e5ep-5",
        "0x1.779d9b5be685ap-7"),
    (3, True, 1, 1): (
        "0x1.0c58a8e38e854p-10", "0x1.0c58a8e38e854p-10",
        "0x0.0p+0"),
    (3, True, 1, 2): (
        "0x1.0c58a8e38e854p-9", "0x1.0c58a8e38e854p-9",
        "0x0.0p+0"),
    (3, True, 1, 128): (
        "0x1.0c58a8e38e854p-3", "0x1.0c58a8e38e854p-3",
        "0x0.0p+0"),
    (3, True, 2, 1): (
        "0x1.b6a4974e90b1dp-10", "0x1.1c6109b02d03fp-11",
        "0x1.287412767a2fdp-10"),
    (3, True, 2, 2): (
        "0x1.2d046ffc3c512p-9", "0x1.1c6109b02d03fp-10",
        "0x1.3da7d6484b9e4p-10"),
    (3, True, 2, 128): (
        "0x1.4b15928e6283ep-4", "0x1.1c6109b02d03fp-4",
        "0x1.75a446f1abff4p-7"),
    (3, True, 3, 1): (
        "0x1.9af690eb752e8p-10", "0x1.9586ba6ed1440p-12",
        "0x1.3594e24fc0dd9p-10"),
    (3, True, 3, 2): (
        "0x1.0ac8b0de59bd1p-9", "0x1.9586ba6ed1440p-11",
        "0x1.4ace04854ad82p-10"),
    (3, True, 3, 128): (
        "0x1.f36e2145cae56p-5", "0x1.9586ba6ed1440p-5",
        "0x1.779d9b5be685ap-7"),
}


def _model(dim):
    return MultiAssetGBM.equicorrelated(dim, 100.0, 0.2, 0.05, 0.3)


def _ladder(dim, american):
    """128 strikes; puts lead when American so early exercise binds."""
    kinds = (PutOnMin, CallOnMax) if american else (CallOnMax, PutOnMin)
    return [kinds[j % 2](80.0 + 40.0 * j / 127.0, dim) for j in range(128)]


@pytest.fixture(scope="module")
def reference():
    """``beg_price`` of every ladder member, priced alone, as hex."""
    return {
        (dim, american): [
            beg_price(_model(dim), py, EXPIRY, STEPS[dim],
                      american=american).price.hex()
            for py in _ladder(dim, american)
        ]
        for dim in STEPS for american in (False, True)
    }


@pytest.mark.parametrize("contracts", LENGTHS)
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("american", [False, True])
@pytest.mark.parametrize("dim", [2, 3])
def test_engine_strip_bits(reference, dim, american, p, contracts):
    payoffs = _ladder(dim, american)[:contracts]
    pricer = ParallelLatticePricer(STEPS[dim], american=american)
    fused = run_strip(pricer, _model(dim), payoffs, EXPIRY, p)
    assert ([r.price.hex() for r in fused]
            == reference[dim, american][:contracts])
    assert {(r.sim_time, r.compute_time, r.comm_time) for r in fused} == {
        tuple(float.fromhex(h)
              for h in PINNED_TIMES[dim, american, p, contracts])}


@pytest.mark.parametrize("contracts", LENGTHS)
@pytest.mark.parametrize("american", [False, True])
@pytest.mark.parametrize("dim", [2, 3])
def test_kernel_strip_bits(reference, dim, american, contracts):
    payoffs = _ladder(dim, american)[:contracts]
    fused = beg_strip_prices(_model(dim), payoffs, EXPIRY, STEPS[dim],
                             american=american)
    assert [v.hex() for v in fused] == reference[dim, american][:contracts]


# ---------------------------------------------------------------------------
# The mechanism: a stack of value tensors through one step call
# ---------------------------------------------------------------------------


class TestStackedStep:
    """``step`` / ``step_rows`` with a leading contract axis give every
    stacked tensor the bytes it gets alone — for every slab of a level."""

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([1, 2, 3]), contracts=st.sampled_from([1, 2, 7]),
           t=st.integers(0, 5), seed=st.integers(0, 2 ** 16))
    def test_stack_matches_each_tensor_alone(self, dim, contracts, t, seed):
        lattice = BEGLattice(_model(dim) if dim > 1
                             else MultiAssetGBM.single(100.0, 0.2, 0.05),
                             EXPIRY, 6)
        rng = np.random.default_rng(seed)
        stack = rng.standard_normal((contracts,) + (t + 2,) * dim)
        stack *= 10.0 ** rng.integers(-3, 4, size=stack.shape)
        stack[rng.random(stack.shape) < 0.1] = 0.0
        full = lattice.step(stack, t)
        for j in range(contracts):
            assert full[j].tobytes() == lattice.step(stack[j], t).tobytes()
        for lo in range(t + 1):
            for hi in range(lo + 1, t + 2):
                slab = lattice.step_rows(stack[:, lo:hi + 1], t, lo, hi - lo)
                assert slab.tobytes() == full[:, lo:hi].tobytes()
                for j in range(contracts):
                    alone = lattice.step_rows(stack[j, lo:hi + 1], t, lo,
                                              hi - lo)
                    assert slab[j].tobytes() == alone.tobytes()

    def test_validation_unchanged_under_a_stack(self):
        lattice = BEGLattice(_model(2), EXPIRY, 6)
        stack = np.zeros((3, 5, 5))
        with pytest.raises(ValidationError, match=r"must have shape \(5, 5\)"):
            lattice.step(np.zeros((3, 5, 4)), 3)
        with pytest.raises(ValidationError, match=r"must have shape \(5, 5\)"):
            lattice.step(np.zeros(5), 3)
        with pytest.raises(ValidationError,
                           match=r"slab input must have shape \(3, 5\)"):
            lattice.step_rows(stack[:, :2], 3, 0, 2)
        with pytest.raises(ValidationError, match="outside level extent"):
            lattice.step_rows(stack[:, :3], 3, 3, 2)

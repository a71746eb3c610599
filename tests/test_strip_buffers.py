"""Strip kernels that allocate per block: the bits and the buffers.

``beg_strip_walk`` writes the leaves and every level into two buffers,
taken in turn, and the step's scratch into a third, all three allocated
once per strip; the BEG stencil writes its first branch product straight
into its output instead of adding it onto zeros. A Monte Carlo strip
computes a run of baskets' shared ``basket_level`` once and prices each
contract from it. Every price keeps the bits of the contract priced
alone: these tests assert equality of floats, never a tolerance.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.batch.kernels as kernels
import repro.payoffs as payoffs_mod
from repro.batch.kernels import beg_strip_walk, strip_partial
from repro.lattice import beg_price
from repro.lattice.beg import BEGLattice
from repro.market.gbm import MultiAssetGBM
from repro.mc.qmc import QMCSobol
from repro.mc.variance_reduction import Antithetic, PlainMC
from repro.payoffs import (BasketCall, BasketPut, Call, CallOnMax, DigitalCall,
                           GeometricBasketCall, Payoff, Put, PutOnMin, SpreadCall,
                           Straddle)
from repro.rng import Philox4x32

EXPIRY = 1.0


def _model(dim: int) -> MultiAssetGBM:
    return MultiAssetGBM.equicorrelated(dim, spot=100.0, vol=0.2, rate=0.05,
                                        rho=0.3)


def _payoff(dim: int, kind: int, strike: float) -> Payoff:
    if dim == 1:
        return (Call, Put, Straddle, DigitalCall)[kind % 4](strike)
    if dim == 2:
        return (CallOnMax(strike), PutOnMin(strike), BasketCall(2, strike),
                SpreadCall(abs(strike - 100.0)))[kind % 4]
    return (CallOnMax(strike, dim=3), BasketPut(3, strike),
            GeometricBasketCall(3, strike))[kind % 3]


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


# ---------------------------------------------------------------------------
# The lattice walk
# ---------------------------------------------------------------------------


class TestBufferedWalk:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(dim=st.sampled_from([1, 2, 3]), steps=st.integers(1, 9),
           american=st.booleans(), block=st.integers(2, 4),
           size=st.sampled_from(["1", "block-1", "block", "block+1",
                                 "2block+1"]),
           data=st.data())
    def test_roots_equal_beg_price(self, dim, steps, american, block, size,
                                   data):
        n = {"1": 1, "block-1": block - 1, "block": block,
             "block+1": block + 1, "2block+1": 2 * block + 1}[size]
        contracts = data.draw(st.lists(
            st.tuples(st.integers(0, 3), st.floats(70.0, 130.0)),
            min_size=n, max_size=n))
        payoffs = [_payoff(dim, kind, k) for kind, k in contracts]
        model = _model(dim)
        lattice = BEGLattice(model, EXPIRY, steps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "LATTICE_BLOCK_BYTES",
                       block * 8 * (steps + 1) ** dim)
            roots = beg_strip_walk(lattice, payoffs, american=american)
        want = [beg_price(model, p, EXPIRY, steps, american=american).price
                for p in payoffs]
        assert _bits(roots) == _bits(want)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_step_into_buffers_equals_fresh_step(self, dim):
        lattice = BEGLattice(_model(dim), EXPIRY, 6)
        v = np.random.default_rng(dim).normal(size=(3,) + (6,) * dim)
        fresh = lattice.step(v, 4)
        out, tmp = np.full_like(fresh, np.nan), np.full_like(fresh, np.nan)
        into = lattice.step(v, 4, out, tmp)
        assert into is out
        assert fresh.tobytes() == out.tobytes()

    def test_walk_writes_three_strip_buffers(self, monkeypatch):
        """Every level lands in one of two level buffers, with one scratch,
        however many blocks and levels the strip has."""
        real = BEGLattice.step
        bases, results = set(), []

        def spy(self, v_next, t, out=None, tmp=None):
            result = real(self, v_next, t, out, tmp)
            bases.update((id(out.base), id(tmp.base)))
            results.append(result is out)
            return result

        monkeypatch.setattr(BEGLattice, "step", spy)
        monkeypatch.setattr(kernels, "LATTICE_BLOCK_BYTES", 3 * 8 * 11 ** 2)
        lattice = BEGLattice(_model(2), EXPIRY, 10)
        beg_strip_walk(lattice, [CallOnMax(k) for k in range(90, 98)],
                       american=True)
        assert len(results) == 3 * 10 and all(results)
        assert len(bases) == 3


# ---------------------------------------------------------------------------
# The zero fill the stencil no longer does
# ---------------------------------------------------------------------------


def _zero_fill_root(lattice: BEGLattice, payoff: Payoff) -> float:
    """The European root through the stencil as it was: every level
    starts from ``np.zeros`` and adds all ``2^d`` branch products."""
    d = lattice.dim
    v = lattice.payoff_values(payoff, lattice.steps)
    for t in range(lattice.steps - 1, -1, -1):
        out = np.zeros((t + 1,) * d)
        tmp = np.empty_like(out)
        for off, p in lattice._branches:
            np.multiply(v[tuple(slice(o, o + t + 1) for o in off)], p,
                        out=tmp)
            out += tmp
        out *= lattice.disc
        v = out
    return float(v.reshape(-1)[0])


class _Signed(Payoff):
    """``S_0 − K`` with ``-0.0`` at every third node: negative values, a
    sign-carrying zero, and no ``2^d`` neighbourhood of ``-0.0`` alone."""

    def __init__(self, dim: int, strike: float):
        self.dim, self.strike = dim, strike

    def terminal(self, prices):
        y = self._check_prices(prices)[:, 0] - self.strike
        y[::3] = -0.0
        return y


class _NegativeZero(Payoff):
    """``-0.0`` at every node."""

    def __init__(self, dim: int):
        self.dim = dim

    def terminal(self, prices):
        return np.full(len(self._check_prices(prices)), -0.0)


class TestNoZeroFill:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("strike", [90.0, 100.0, 130.0])
    def test_negative_values_and_sparse_negative_zero_keep_their_bits(
            self, dim, strike):
        lattice = BEGLattice(_model(dim), EXPIRY, 7)
        payoff = _Signed(dim, strike)
        got = beg_price(_model(dim), payoff, EXPIRY, 7).price
        assert got.hex() == _zero_fill_root(lattice, payoff).hex()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_only_an_all_negative_zero_neighbourhood_moves(self, dim):
        """The one case: ``0.0 + -0.0`` is ``+0.0``. A payoff that is
        ``-0.0`` everywhere keeps the sign; the zero fill dropped it."""
        lattice = BEGLattice(_model(dim), EXPIRY, 5)
        payoff = _NegativeZero(dim)
        got = beg_price(_model(dim), payoff, EXPIRY, 5).price
        assert got == 0.0 and math.copysign(1.0, got) == -1.0
        assert math.copysign(1.0, _zero_fill_root(lattice, payoff)) == 1.0

    def test_no_lattice_payoff_emits_a_signed_zero_or_a_negative(self):
        """Every terminal payoff this package ships is ``≥ +0.0`` on a
        lattice mesh, strike on a node included. With ``p ≥ 0`` and
        ``disc > 0``, no level then holds an all-``-0.0`` neighbourhood,
        so dropping the zero fill moves no price of theirs."""
        lattice2 = BEGLattice(_model(2), EXPIRY, 8)
        lattice1 = BEGLattice(_model(1), EXPIRY, 8)
        shipped = {
            name for name in payoffs_mod.__all__
            if isinstance(getattr(payoffs_mod, name), type)
            and issubclass(getattr(payoffs_mod, name), Payoff)
            and getattr(payoffs_mod, name) is not Payoff
            and not getattr(payoffs_mod, name).is_path_dependent}
        cases = {
            "Call": Call(100.0), "Put": Put(100.0),
            "DigitalCall": DigitalCall(100.0),
            "DigitalPut": payoffs_mod.DigitalPut(100.0),
            "Straddle": Straddle(100.0), "Forward": payoffs_mod.Forward(),
            "BasketCall": BasketCall(2, 100.0),
            "BasketPut": BasketPut(2, 100.0),
            "GeometricBasketCall": GeometricBasketCall(2, 100.0),
            "GeometricBasketPut": payoffs_mod.GeometricBasketPut(2, 100.0),
            "CallOnMax": CallOnMax(100.0), "CallOnMin": payoffs_mod.CallOnMin(100.0),
            "PutOnMax": payoffs_mod.PutOnMax(100.0), "PutOnMin": PutOnMin(100.0),
            "SpreadCall": SpreadCall(0.0),
            "ExchangeOption": payoffs_mod.ExchangeOption(),
            "PowerCall": payoffs_mod.PowerCall(100.0, 1.0),
            "PowerPut": payoffs_mod.PowerPut(100.0, 1.0),
        }
        assert shipped == set(cases)
        for name, payoff in cases.items():
            lattice = lattice1 if payoff.dim == 1 else lattice2
            for t in range(lattice.steps + 1):
                values = lattice.payoff_values(payoff, t)
                assert not np.signbit(values).any(), (name, t)


# ---------------------------------------------------------------------------
# Monte Carlo ladders: one basket level per run
# ---------------------------------------------------------------------------


def _ladder(shape: str) -> list[Payoff]:
    """``runs``: runs of equal weights over all three basket payoffs, one
    run broken by a payoff without a level (five levels). ``distinct``:
    every contract a level of its own (five levels)."""
    w_a, w_b = [0.5, 0.5], [0.3, 0.7]
    if shape == "runs":
        return ([BasketCall(w_a, k) for k in (90.0, 100.0, 110.0)]
                + [BasketPut(w_a, k) for k in (95.0, 105.0)]
                + [GeometricBasketCall(w_a, k) for k in (90.0, 100.0)]
                + [BasketCall(w_b, 100.0), BasketPut(w_b, 100.0)]
                + [GeometricBasketCall(w_b, 100.0), CallOnMax(100.0),
                   BasketCall(w_b, 90.0)])
    return [BasketCall(w_a, 100.0), BasketCall(w_b, 100.0),
            BasketPut(w_a, 100.0), GeometricBasketCall(w_b, 100.0),
            BasketCall([0.2, 0.8], 100.0)]


class TestBasketLevelOnce:
    @pytest.mark.parametrize("technique", [PlainMC(), Antithetic(),
                                           QMCSobol(4, seed=3)],
                             ids=["plain", "antithetic", "qmc"])
    @pytest.mark.parametrize("shape", ["runs", "distinct"])
    def test_each_contract_is_its_partial_alone(self, technique, shape):
        model = _model(2)
        payoffs = _ladder(shape)
        fused = strip_partial(technique, model, payoffs, EXPIRY, 2_048,
                              Philox4x32(17))
        for payoff, got in zip(payoffs, fused):
            assert got == technique.partial(model, payoff, EXPIRY, 2_048,
                                            Philox4x32(17))

    @pytest.mark.parametrize("shape", ["runs", "distinct"])
    def test_level_computed_once_per_run(self, monkeypatch, shape):
        from repro.payoffs.basket import _Basket, _GeometricBasket

        calls = []
        for base in (_Basket, _GeometricBasket):
            real = base.basket_level
            monkeypatch.setattr(
                base, "basket_level",
                lambda self, prices, _real=real: calls.append(1)
                or _real(self, prices))
        strip_partial(PlainMC(), _model(2), _ladder(shape), EXPIRY, 512,
                      Philox4x32(1))
        assert len(calls) == 5

    def test_a_basket_with_its_own_terminal_is_priced_by_it(self):
        class Capped(BasketCall):
            def terminal(self, prices):
                return np.minimum(super().terminal(prices), 5.0)

        model = _model(2)
        payoffs = [BasketCall(2, 95.0), Capped(2, 95.0), BasketCall(2, 90.0)]
        fused = strip_partial(PlainMC(), model, payoffs, EXPIRY, 1_024,
                              Philox4x32(2))
        for payoff, got in zip(payoffs, fused):
            assert got == PlainMC().partial(model, payoff, EXPIRY, 1_024,
                                            Philox4x32(2))
        assert fused[0] != fused[1]


# ---------------------------------------------------------------------------
# Memory: three block buffers per lattice strip, one level per MC ladder
# ---------------------------------------------------------------------------


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("american", [False, True])
def test_walk_holds_three_block_buffers(american):
    """Peak of a many-block strip: the three strip buffers, which also hold
    the leaves and an American level's intrinsic values, and one level's
    mesh; nothing grows with the number of blocks or levels."""
    steps, dim, contracts = 64, 2, 64
    lattice = BEGLattice(_model(dim), EXPIRY, steps)
    payoffs = [CallOnMax(float(k)) for k in np.linspace(80.0, 120.0, contracts)]
    block = kernels.LATTICE_BLOCK_BYTES // (8 * (steps + 1) ** dim)
    leaves = 8 * block * (steps + 1) ** dim
    mesh = 8 * dim * (steps + 1) ** dim
    peak = _peak_bytes(lambda: beg_strip_walk(lattice, payoffs,
                                              american=american))
    assert contracts > 4 * block
    assert peak < 3 * leaves + 4 * mesh + 64 * 1024


def test_mc_ladder_holds_one_basket_level():
    """Peak of a rank over 100 runs of two baskets: the normals and the
    price matrix, one basket level, and the two vectors one contract is
    reduced through (its discounted values and their squares). A second
    level held would cross the bound."""
    n, dim = 50_000, 2
    payoffs = [BasketCall([1.0, 1.0 + j], k) for j in range(100)
               for k in (90.0, 110.0)]
    peak = _peak_bytes(lambda: strip_partial(
        PlainMC(), _model(dim), payoffs, EXPIRY, n, Philox4x32(5)))
    assert peak < (2 * dim + 3.5) * 8 * n

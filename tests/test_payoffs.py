"""Payoff algebra: parity identities, monotonicity, path dispatch."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ValidationError
from repro.payoffs import (
    AsianArithmeticCall,
    AsianArithmeticPut,
    AsianGeometricCall,
    BarrierOption,
    BasketCall,
    BasketPut,
    Call,
    CallOnMax,
    CallOnMin,
    DigitalCall,
    DigitalPut,
    ExchangeOption,
    FixedStrikeLookbackCall,
    FixedStrikeLookbackPut,
    FloatingStrikeLookbackCall,
    FloatingStrikeLookbackPut,
    Forward,
    GeometricBasketCall,
    GeometricBasketPut,
    Put,
    PutOnMax,
    PutOnMin,
    SpreadCall,
    Straddle,
)

prices_1d = hnp.arrays(np.float64, st.integers(1, 40),
                       elements=st.floats(0.01, 500.0))


class TestVanilla:
    @given(prices_1d)
    def test_put_call_parity_pointwise(self, s):
        k = 100.0
        s2 = s[:, None]
        lhs = Call(k).terminal(s2) - Put(k).terminal(s2)
        assert np.allclose(lhs, s - k)

    @given(prices_1d)
    def test_straddle_is_call_plus_put(self, s):
        k = 75.0
        s2 = s[:, None]
        assert np.allclose(
            Straddle(k).terminal(s2), Call(k).terminal(s2) + Put(k).terminal(s2)
        )

    def test_digitals_partition_unity(self):
        s = np.array([[50.0], [150.0], [99.0]])
        total = DigitalCall(100.0).terminal(s) + DigitalPut(100.0).terminal(s)
        assert np.allclose(total, 1.0)  # no mass exactly at the strike here

    def test_forward_linear(self):
        s = np.array([[90.0], [110.0]])
        assert np.allclose(Forward().terminal(s), [90.0, 110.0])

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            Call(100.0).terminal(np.ones((5, 3)))

    def test_nonpositive_strike_rejected(self):
        with pytest.raises(ValidationError):
            Call(0.0)


class TestBasket:
    def test_weights_normalized(self):
        b = BasketCall([2.0, 2.0], 100.0)
        assert np.allclose(b.weights, 0.5)

    def test_integer_weights_means_equal_weights(self):
        b = BasketCall(4, 100.0)
        assert b.dim == 4
        assert np.allclose(b.weights, 0.25)

    @given(hnp.arrays(np.float64, 3, elements=st.floats(1.0, 300.0)))
    def test_put_call_parity(self, s):
        k = 90.0
        w = [0.5, 0.3, 0.2]
        s2 = s[None, :]
        diff = BasketCall(w, k).terminal(s2) - BasketPut(w, k).terminal(s2)
        assert np.allclose(diff, s2 @ np.asarray(w) - k)

    @given(hnp.arrays(np.float64, 3, elements=st.floats(1.0, 300.0)))
    def test_geometric_below_arithmetic(self, s):
        # AM–GM: geometric basket level ≤ arithmetic, so the call pays less.
        w = [1 / 3] * 3
        s2 = s[None, :]
        g = GeometricBasketCall(w, 50.0).terminal(s2)
        a = BasketCall(w, 50.0).terminal(s2)
        assert g[0] <= a[0] + 1e-9

    def test_geometric_parity(self):
        s = np.array([[100.0, 120.0]])
        w = [0.5, 0.5]
        k = 90.0
        level = np.sqrt(100.0 * 120.0)
        diff = (GeometricBasketCall(w, k).terminal(s)
                - GeometricBasketPut(w, k).terminal(s))
        assert diff[0] == pytest.approx(level - k)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValidationError):
            BasketCall([0.5, -0.5], 100.0)

    def test_geometric_rejects_nonpositive_prices(self):
        with pytest.raises(ValidationError):
            GeometricBasketCall([1.0], 100.0).terminal(np.array([[0.0]]))


class TestRainbow:
    @given(hnp.arrays(np.float64, 2, elements=st.floats(1.0, 300.0)))
    def test_max_min_decomposition(self, s):
        # max(S) + min(S) = S1 + S2 ⇒ CallOnMax + CallOnMin vs baskets.
        k = 80.0
        s2 = s[None, :]
        cmax = CallOnMax(k).terminal(s2)[0]
        cmin = CallOnMin(k).terminal(s2)[0]
        assert cmax >= cmin - 1e-12
        assert cmax == pytest.approx(max(s.max() - k, 0.0))
        assert cmin == pytest.approx(max(s.min() - k, 0.0))

    @given(hnp.arrays(np.float64, 2, elements=st.floats(1.0, 300.0)))
    def test_put_on_extremes(self, s):
        k = 120.0
        s2 = s[None, :]
        assert PutOnMax(k).terminal(s2)[0] == pytest.approx(max(k - s.max(), 0.0))
        assert PutOnMin(k).terminal(s2)[0] == pytest.approx(max(k - s.min(), 0.0))

    def test_exchange_is_zero_strike_spread(self):
        s = np.array([[110.0, 95.0], [90.0, 95.0]])
        assert np.allclose(ExchangeOption().terminal(s), [15.0, 0.0])

    def test_spread_with_strike(self):
        s = np.array([[110.0, 95.0]])
        assert SpreadCall(10.0).terminal(s)[0] == pytest.approx(5.0)

    def test_rainbow_needs_two_assets(self):
        with pytest.raises(ValidationError):
            CallOnMax(100.0, dim=1)


class TestPathDependent:
    def _paths(self):
        # Two simple deterministic paths on one asset.
        return np.array(
            [
                [[100.0], [110.0], [120.0]],
                [[100.0], [90.0], [80.0]],
            ]
        )

    def test_asian_arithmetic(self):
        p = self._paths()
        # Averages over monitoring dates (excluding t=0): 115 and 85.
        call = AsianArithmeticCall(100.0).path(p)
        put = AsianArithmeticPut(100.0).path(p)
        assert np.allclose(call, [15.0, 0.0])
        assert np.allclose(put, [0.0, 15.0])

    def test_asian_geometric_below_arithmetic(self):
        p = self._paths()
        g = AsianGeometricCall(100.0).path(p)
        a = AsianArithmeticCall(100.0).path(p)
        assert np.all(g <= a + 1e-12)

    def test_asian_terminal_refuses(self):
        with pytest.raises(ValidationError):
            AsianArithmeticCall(100.0).terminal(np.array([[100.0]]))

    def test_call_dispatch_on_rank(self):
        p = self._paths()
        out = AsianArithmeticCall(100.0)(p)  # __call__ with 3-D input
        assert out.shape == (2,)

    def test_lookbacks(self):
        p = self._paths()
        assert np.allclose(FloatingStrikeLookbackCall().path(p), [20.0, 0.0])
        assert np.allclose(FloatingStrikeLookbackPut().path(p), [0.0, 20.0])
        assert np.allclose(FixedStrikeLookbackCall(105.0).path(p), [15.0, 0.0])
        assert np.allclose(FixedStrikeLookbackPut(95.0).path(p), [0.0, 15.0])

    def test_floating_lookbacks_nonnegative_property(self):
        rng = np.random.default_rng(5)
        paths = np.abs(rng.lognormal(size=(50, 6, 1))) * 100.0
        assert np.all(FloatingStrikeLookbackCall().path(paths) >= 0.0)
        assert np.all(FloatingStrikeLookbackPut().path(paths) >= 0.0)

    def test_paths_need_two_dates(self):
        with pytest.raises(ValidationError):
            AsianArithmeticCall(100.0).path(np.ones((3, 1, 1)))


class TestBarrier:
    def _paths(self):
        return np.array(
            [
                [[100.0], [125.0], [110.0]],  # crosses 120 up-barrier
                [[100.0], [105.0], [110.0]],  # never crosses
            ]
        )

    def test_up_and_out_knocks(self):
        b = BarrierOption("up-and-out", "call", 100.0, 120.0)
        assert np.allclose(b.path(self._paths()), [0.0, 10.0])

    def test_up_and_in_complements(self):
        b = BarrierOption("up-and-in", "call", 100.0, 120.0)
        assert np.allclose(b.path(self._paths()), [10.0, 0.0])

    @given(st.integers(0, 100))
    def test_in_out_parity_pathwise(self, seed):
        # KO + KI = vanilla on every path (rebate 0) — exact identity.
        rng = np.random.default_rng(seed)
        paths = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.05, size=(20, 8, 1)), axis=1))
        paths = np.concatenate([np.full((20, 1, 1), 100.0), paths], axis=1)
        for kind in ("up", "down"):
            h = 115.0 if kind == "up" else 85.0
            ko = BarrierOption(f"{kind}-and-out", "call", 100.0, h).path(paths)
            ki = BarrierOption(f"{kind}-and-in", "call", 100.0, h).path(paths)
            vanilla = np.maximum(paths[:, -1, 0] - 100.0, 0.0)
            assert np.allclose(ko + ki, vanilla)

    def test_direction_and_knock_properties(self):
        b = BarrierOption("down-and-in", "put", 100.0, 80.0)
        assert b.direction == "down"
        assert b.knock == "in"

    def test_invalid_kind(self):
        with pytest.raises(ValidationError):
            BarrierOption("sideways-and-out", "call", 100.0, 120.0)

    def test_terminal_refuses(self):
        with pytest.raises(ValidationError):
            BarrierOption("up-and-out", "call", 100.0, 120.0).terminal(
                np.array([[100.0]])
            )


class TestRepr:
    def test_repr_shows_parameters(self):
        assert "strike=100.0" in repr(Call(100.0))
        assert "BasketCall" in repr(BasketCall([1, 1], 90.0))

"""Sequential Monte Carlo engine against every closed form we own."""

import numpy as np
import pytest

from repro.analytic import (
    barrier_price,
    bs_price,
    geometric_asian_price,
    geometric_basket_price,
    margrabe_price,
    rainbow_two_asset_price,
)
from repro.errors import ValidationError
from repro.market import MultiAssetGBM
from repro.mc import MCResult, MonteCarloEngine
from repro.payoffs import (
    AsianGeometricCall,
    BarrierOption,
    BasketCall,
    Call,
    CallOnMin,
    DigitalCall,
    ExchangeOption,
    GeometricBasketCall,
    Put,
)

N = 150_000


class TestEuropeanAccuracy:
    def test_bs_call_within_ci(self, model_1d):
        r = MonteCarloEngine(N, seed=1).price(model_1d, Call(100.0), 1.0)
        assert r.within(bs_price(100, 100, 0.2, 0.05, 1.0))

    def test_bs_put_within_ci(self, model_1d):
        r = MonteCarloEngine(N, seed=2).price(model_1d, Put(100.0), 1.0)
        assert r.within(bs_price(100, 100, 0.2, 0.05, 1.0, option="put"))

    def test_digital_within_ci(self, model_1d):
        r = MonteCarloEngine(N, seed=3).price(model_1d, DigitalCall(100.0), 1.0)
        # Digital call = e^{-rT}·N(d2).
        from repro.utils.numerics import norm_cdf
        import math

        d2 = (math.log(1.0) + (0.05 - 0.02) * 1.0) / 0.2
        exact = math.exp(-0.05) * float(norm_cdf(d2))
        assert r.within(exact)

    def test_margrabe_within_ci(self, model_2d):
        r = MonteCarloEngine(N, seed=4).price(model_2d, ExchangeOption(), 1.0)
        assert r.within(margrabe_price(100, 95, 0.2, 0.3, 0.4, 1.0))

    def test_stulz_min_call_within_ci(self, model_2d):
        r = MonteCarloEngine(N, seed=5).price(model_2d, CallOnMin(100.0), 1.0)
        exact = rainbow_two_asset_price(100, 95, 100, 0.2, 0.3, 0.4, 0.05, 1.0,
                                        kind="call-on-min")
        assert r.within(exact)

    def test_geometric_basket_within_ci(self, model_4d):
        w = [0.25] * 4
        r = MonteCarloEngine(N, seed=6).price(model_4d, GeometricBasketCall(w, 100.0), 1.0)
        assert r.within(geometric_basket_price(model_4d, w, 100.0, 1.0))

    def test_arithmetic_basket_bounded_by_geometric(self, model_4d):
        w = [0.25] * 4
        ar = MonteCarloEngine(N, seed=7).price(model_4d, BasketCall(w, 100.0), 1.0)
        ge = geometric_basket_price(model_4d, w, 100.0, 1.0)
        assert ar.price > ge  # AM ≥ GM ⇒ dearer call


class TestPathDependentAccuracy:
    def test_geometric_asian_within_ci(self, model_1d):
        eng = MonteCarloEngine(N, steps=12, seed=8)
        r = eng.price(model_1d, AsianGeometricCall(100.0), 1.0)
        assert r.within(geometric_asian_price(100, 100, 0.2, 0.05, 1.0, 12))

    def test_barrier_converges_to_continuous_form(self, model_1d):
        # Discrete monitoring gives a *higher* knock-out value; with 250
        # dates it lands within a few percent of the continuous formula.
        eng = MonteCarloEngine(100_000, steps=250, seed=9)
        contract = BarrierOption("up-and-out", "call", 100.0, 130.0)
        r = eng.price(model_1d, contract, 1.0)
        cont = barrier_price(100, 100, 130, 0.2, 0.05, 1.0, kind="up-and-out")
        assert r.price > cont - 2 * r.stderr  # discrete ≥ continuous (KO)
        assert abs(r.price - cont) < 0.05 * cont + 4 * r.stderr


class TestEngineContracts:
    def test_deterministic_in_seed(self, model_1d):
        a = MonteCarloEngine(20_000, seed=11).price(model_1d, Call(100.0), 1.0)
        b = MonteCarloEngine(20_000, seed=11).price(model_1d, Call(100.0), 1.0)
        assert a.price == b.price

    def test_stderr_shrinks_with_n(self, model_1d):
        small = MonteCarloEngine(10_000, seed=13).price(model_1d, Call(100.0), 1.0)
        large = MonteCarloEngine(160_000, seed=13).price(model_1d, Call(100.0), 1.0)
        assert large.stderr < small.stderr / 3.0  # ≈ 1/√16 = 1/4

    def test_dim_mismatch_rejected(self, model_2d):
        with pytest.raises(ValidationError):
            MonteCarloEngine(1000).price(model_2d, Call(100.0), 1.0)

    def test_path_dependent_needs_steps(self, model_1d):
        with pytest.raises(ValidationError, match="steps"):
            MonteCarloEngine(1000).price(model_1d, AsianGeometricCall(100.0), 1.0)

    def test_wall_time_recorded(self, model_1d):
        r = MonteCarloEngine(5_000, seed=1).price(model_1d, Call(100.0), 1.0)
        assert r.meta["wall_time_s"] > 0


class TestMCResult:
    def test_confidence_interval_ordering(self):
        r = MCResult(price=10.0, stderr=0.1, n_paths=1000)
        lo, hi = r.confidence_interval()
        assert lo < 10.0 < hi
        assert hi - lo == pytest.approx(2 * 1.959963984540054 * 0.1, rel=1e-9)

    def test_within_helper(self):
        r = MCResult(price=10.0, stderr=0.1, n_paths=1000)
        assert r.within(10.2)
        assert not r.within(11.0)

    def test_str_contains_key_fields(self):
        s = str(MCResult(price=1.5, stderr=0.01, n_paths=10, technique="plain"))
        assert "plain" in s and "1.5" in s

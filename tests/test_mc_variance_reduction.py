"""Variance-reduction techniques: correctness first, then actual reduction."""

import pytest

from repro.analytic import bs_price, geometric_asian_price, geometric_basket_price
from repro.errors import ValidationError
from repro.mc import (
    Antithetic,
    ControlVariate,
    MonteCarloEngine,
    PlainMC,
    Stratified,
)
from repro.payoffs import (
    AsianArithmeticCall,
    AsianGeometricCall,
    BasketCall,
    Call,
    Forward,
    GeometricBasketCall,
)
from repro.rng import Philox4x32

N = 100_000


def _price(model, payoff, technique, seed=0, n=N, steps=None):
    return MonteCarloEngine(n, technique=technique, seed=seed, steps=steps).price(
        model, payoff, 1.0
    )


class TestAntithetic:
    def test_unbiased(self, model_1d):
        r = _price(model_1d, Call(100.0), Antithetic(), seed=1)
        assert r.within(bs_price(100, 100, 0.2, 0.05, 1.0))

    def test_reduces_variance_for_monotone_payoff(self, model_1d):
        plain = _price(model_1d, Call(100.0), PlainMC(), seed=2)
        anti = _price(model_1d, Call(100.0), Antithetic(), seed=2)
        assert anti.stderr < plain.stderr

    def test_exact_for_linear_payoff(self, model_1d):
        # A forward is odd in z around the median path: the pair mean is a
        # function of |z| only through exp, still reduces hugely.
        plain = _price(model_1d, Forward(), PlainMC(), seed=3)
        anti = _price(model_1d, Forward(), Antithetic(), seed=3)
        assert anti.stderr < 0.35 * plain.stderr

    def test_requires_even_paths(self, model_1d):
        with pytest.raises(ValidationError, match="even"):
            Antithetic().partial(model_1d, Call(100.0), 1.0, 101, Philox4x32(0))

    def test_reports_path_count(self, model_1d):
        r = _price(model_1d, Call(100.0), Antithetic(), n=20_000)
        assert r.n_paths == 20_000


class TestControlVariate:
    def test_geometric_controls_arithmetic_basket(self, model_4d):
        w = [0.25] * 4
        exact_g = geometric_basket_price(model_4d, w, 100.0, 1.0)
        cv = ControlVariate(GeometricBasketCall(w, 100.0), exact_g)
        plain = _price(model_4d, BasketCall(w, 100.0), PlainMC(), seed=4)
        ctrl = _price(model_4d, BasketCall(w, 100.0), cv, seed=4)
        assert ctrl.stderr < 0.2 * plain.stderr
        assert abs(ctrl.price - plain.price) < 4 * plain.stderr

    def test_geometric_controls_arithmetic_asian(self, model_1d):
        exact_g = geometric_asian_price(100, 100, 0.2, 0.05, 1.0, 12)
        cv = ControlVariate(AsianGeometricCall(100.0), exact_g)
        plain = _price(model_1d, AsianArithmeticCall(100.0), PlainMC(), seed=5, steps=12)
        ctrl = _price(model_1d, AsianArithmeticCall(100.0), cv, seed=5, steps=12)
        assert ctrl.stderr < 0.2 * plain.stderr

    def test_self_control_is_exact(self, model_1d):
        # Controlling a payoff with itself collapses the variance entirely.
        exact = bs_price(100, 100, 0.2, 0.05, 1.0)
        cv = ControlVariate(Call(100.0), exact)
        r = _price(model_1d, Call(100.0), cv, seed=6, n=10_000)
        assert r.price == pytest.approx(exact, abs=1e-9)
        assert r.stderr == pytest.approx(0.0, abs=1e-9)

    def test_forward_control(self, model_1d):
        # E[e^{-rT} S_T] = S₀: a cheap universal control.
        cv = ControlVariate(Forward(), 100.0)
        plain = _price(model_1d, Call(100.0), PlainMC(), seed=7)
        ctrl = _price(model_1d, Call(100.0), cv, seed=7)
        assert ctrl.stderr < plain.stderr
        assert ctrl.within(bs_price(100, 100, 0.2, 0.05, 1.0))

    def test_dim_mismatch_rejected(self, model_2d):
        cv = ControlVariate(Call(100.0), 10.0)
        with pytest.raises(ValidationError):
            cv.partial(model_2d, BasketCall([0.5, 0.5], 100.0), 1.0, 100, Philox4x32(0))

    def test_control_must_be_payoff(self):
        with pytest.raises(ValidationError):
            ControlVariate("not a payoff", 1.0)


class TestStratified:
    def test_unbiased(self, model_1d):
        r = _price(model_1d, Call(100.0), Stratified(16), seed=8, n=96_000)
        assert abs(r.price - bs_price(100, 100, 0.2, 0.05, 1.0)) <= 5 * r.stderr

    def test_reduces_variance_single_asset(self, model_1d):
        plain = _price(model_1d, Call(100.0), PlainMC(), seed=9, n=96_000)
        strat = _price(model_1d, Call(100.0), Stratified(32), seed=9, n=96_000)
        assert strat.stderr < 0.6 * plain.stderr

    def test_divisibility_enforced(self, model_1d):
        with pytest.raises(ValidationError, match="multiple"):
            Stratified(16).partial(model_1d, Call(100.0), 1.0, 1000, Philox4x32(0))

    def test_path_dependent_rejected(self, model_1d):
        with pytest.raises(ValidationError):
            Stratified(4).partial(model_1d, AsianGeometricCall(100.0), 1.0, 400,
                                  Philox4x32(0), steps=12)

    def test_multi_asset_supported(self, model_4d):
        r = _price(model_4d, BasketCall([0.25] * 4, 100.0), Stratified(8), seed=10,
                   n=80_000)
        plain = _price(model_4d, BasketCall([0.25] * 4, 100.0), PlainMC(), seed=10,
                       n=80_000)
        assert abs(r.price - plain.price) < 5 * plain.stderr


class TestPartialMergeContract:
    """Each technique's (partial, combine, finalize) must be order-independent
    and equal to one-shot accumulation — the property the tree reduction
    relies on."""

    @pytest.mark.parametrize("technique", [PlainMC(), Antithetic()])
    def test_split_equals_whole(self, model_1d, technique):
        gen_a = Philox4x32(21)
        whole = technique.partial(model_1d, Call(100.0), 1.0, 4000, gen_a.clone())
        gen_b = gen_a.clone()
        parts = [
            technique.partial(model_1d, Call(100.0), 1.0, 1000, gen_b)
            for _ in range(4)
        ]
        merged = technique.combine(parts)
        w_price, w_se, w_n = technique.finalize(whole)
        m_price, m_se, m_n = technique.finalize(merged)
        assert w_n == m_n
        assert m_price == pytest.approx(w_price, rel=1e-12)
        assert m_se == pytest.approx(w_se, rel=1e-9)

    def test_combine_order_invariance(self, model_1d):
        tech = PlainMC()
        gen = Philox4x32(22)
        parts = [tech.partial(model_1d, Call(100.0), 1.0, 500, gen) for _ in range(3)]
        a = tech.finalize(tech.combine(parts))
        b = tech.finalize(tech.combine(parts[::-1]))
        assert a[0] == pytest.approx(b[0], rel=1e-12)

"""1-D finite differences: θ-schemes, stability, American PSOR."""

import numpy as np
import pytest

from repro.analytic import bs_greeks, bs_price
from repro.errors import StabilityError, ValidationError
from repro.lattice import binomial_price
from repro.payoffs import AsianGeometricCall, BasketCall, Call, Put, Straddle
from repro.pde import fd_price, theta_scheme_operator
from repro.pde.grid import LogGrid


class TestOperator:
    def test_bands_shape(self):
        lo, d, up = theta_scheme_operator(0.2, 0.05, 0.0, 0.01, 11)
        assert lo.shape == d.shape == up.shape == (11,)

    def test_interior_row_sums_to_minus_rate_on_constants(self):
        # L applied to a constant must be −r·const (no diffusion/convection).
        lo, d, up = theta_scheme_operator(0.2, 0.05, 0.01, 0.02, 21)
        ones = np.ones(21)
        y = d * ones
        y[1:] += lo[1:]
        y[:-1] += up[:-1]
        assert np.allclose(y, -0.05)

    def test_linear_function_sees_convection_only(self):
        # L x = μ for interior nodes when V = x (V_xx = 0).
        vol, r, q, dx, n = 0.2, 0.05, 0.01, 0.02, 41
        lo, d, up = theta_scheme_operator(vol, r, q, dx, n)
        x = dx * np.arange(n)
        y = d * x
        y[1:] += lo[1:] * x[:-1]
        y[:-1] += up[:-1] * x[1:]
        mu = r - q - 0.5 * vol * vol
        interior = y[1:-1] + r * x[1:-1]
        assert np.allclose(interior, mu, atol=1e-10)

    def test_validation(self):
        with pytest.raises(ValidationError):
            theta_scheme_operator(0.2, 0.05, 0.0, 0.01, 2)


class TestEuropeanConvergence:
    @pytest.mark.parametrize("scheme", ["implicit", "crank-nicolson"])
    def test_call_converges(self, scheme):
        exact = bs_price(100, 100, 0.2, 0.05, 1.0)
        r = fd_price(100, Call(100.0), 0.2, 0.05, 1.0, scheme=scheme,
                     n_space=400, n_time=400)
        assert r.price == pytest.approx(exact, abs=0.01)

    def test_explicit_with_fine_time_grid(self):
        exact = bs_price(100, 100, 0.2, 0.05, 1.0)
        r = fd_price(100, Call(100.0), 0.2, 0.05, 1.0, scheme="explicit",
                     n_space=100, n_time=2500)
        assert r.price == pytest.approx(exact, abs=0.03)

    def test_crank_nicolson_beats_implicit_in_time(self):
        exact = bs_price(100, 100, 0.2, 0.05, 1.0)
        imp = fd_price(100, Call(100.0), 0.2, 0.05, 1.0, scheme="implicit",
                       n_space=800, n_time=50).price
        cn = fd_price(100, Call(100.0), 0.2, 0.05, 1.0, scheme="crank-nicolson",
                      n_space=800, n_time=50).price
        assert abs(cn - exact) < abs(imp - exact)

    def test_put_call_parity(self):
        c = fd_price(100, Call(95.0), 0.2, 0.05, 1.0).price
        p = fd_price(100, Put(95.0), 0.2, 0.05, 1.0).price
        assert c - p == pytest.approx(100 - 95 * np.exp(-0.05), abs=0.02)

    def test_straddle(self):
        s = fd_price(100, Straddle(100.0), 0.2, 0.05, 1.0).price
        exact = bs_price(100, 100, 0.2, 0.05, 1.0) + bs_price(
            100, 100, 0.2, 0.05, 1.0, option="put"
        )
        assert s == pytest.approx(exact, abs=0.02)

class TestGreeks:
    def test_delta_gamma_from_grid(self):
        g = bs_greeks(100, 100, 0.2, 0.05, 1.0)
        r = fd_price(100, Call(100.0), 0.2, 0.05, 1.0, n_space=600, n_time=300)
        assert r.delta == pytest.approx(g.delta, abs=2e-3)
        assert r.gamma == pytest.approx(g.gamma, rel=0.03)


class TestStability:
    def test_explicit_cfl_violation_raises(self):
        with pytest.raises(StabilityError) as exc:
            fd_price(100, Call(100.0), 0.2, 0.05, 1.0, scheme="explicit",
                     n_space=400, n_time=100)
        assert exc.value.cfl is not None and exc.value.cfl > 1.0

    def test_implicit_unconditionally_stable(self):
        # Same brutal grid, implicit scheme: fine.
        r = fd_price(100, Call(100.0), 0.2, 0.05, 1.0, scheme="implicit",
                     n_space=400, n_time=10)
        assert np.isfinite(r.price)


class TestAmerican:
    def test_put_matches_binomial(self):
        tree = binomial_price(100, Put(100.0), 0.2, 0.05, 1.0, 2000,
                              american=True).price
        r = fd_price(100, Put(100.0), 0.2, 0.05, 1.0, american=True,
                     n_space=400, n_time=200)
        assert r.price == pytest.approx(tree, abs=0.01)

    def test_explicit_american_projection(self):
        r = fd_price(100, Put(100.0), 0.2, 0.05, 1.0, scheme="explicit",
                     american=True, n_space=100, n_time=2500)
        tree = binomial_price(100, Put(100.0), 0.2, 0.05, 1.0, 1000,
                              american=True).price
        assert r.price == pytest.approx(tree, abs=0.05)


class TestValidation:
    def test_scheme_name(self):
        with pytest.raises(ValidationError):
            fd_price(100, Call(100.0), 0.2, 0.05, 1.0, scheme="dufort-frankel")

    def test_multi_asset_rejected(self):
        with pytest.raises(ValidationError):
            fd_price(100, BasketCall([1, 1], 100.0), 0.2, 0.05, 1.0)

    def test_path_dependent_rejected(self):
        with pytest.raises(ValidationError):
            fd_price(100, AsianGeometricCall(100.0), 0.2, 0.05, 1.0)

class TestLogGrid:
    def test_spot_on_node(self):
        g = LogGrid(123.0, 0.3, 2.0, 100)
        assert g.s[g.spot_index] == pytest.approx(123.0)

    def test_odd_interval_count_rejected(self):
        with pytest.raises(ValidationError):
            LogGrid(100, 0.2, 1.0, 101)

    def test_width_scales_with_vol(self):
        narrow = LogGrid(100, 0.1, 1.0, 100)
        wide = LogGrid(100, 0.4, 1.0, 100)
        assert wide.x[-1] > narrow.x[-1]

    def test_derivative_readout_on_quadratic(self):
        # Central differences in x carry an O(S²·dx²) error when read back
        # as S-derivatives; a fine grid keeps it at the 1e-4 level.
        g = LogGrid(100, 0.2, 1.0, 2000)
        v = (g.s - 100.0) ** 2
        delta, gamma = g.derivatives_at_spot(v)
        assert delta == pytest.approx(0.0, abs=2e-4)
        assert gamma == pytest.approx(2.0, rel=1e-3)

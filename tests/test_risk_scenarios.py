"""Property suite for the seeded scenario generators.

The contracts under test:

* **Byte reproducibility** — every generator is a pure function of its
  arguments: same seed ⇒ identical :func:`shock_bytes`, and the stress
  stream is prefix-stable (scenario ``i`` never depends on ``n``).
* **PSD safety** — a correlation-shocked scenario always constructs a
  valid market: the shifted matrix comes back symmetric and PSD, and
  already-valid matrices pass through :func:`repair_correlation`
  bitwise untouched.
* **Identity** — a zero-magnitude scenario reproduces the base book
  bitwise, down to the request cache key (which is what gives risk
  sweeps their exact cache hit/miss structure).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.market.correlation import is_positive_semidefinite
from repro.market.gbm import MultiAssetGBM
from repro.risk.scenarios import (SWEEP_AXES, Scenario, axis_sweep,
                                  base_scenario, historical_scenarios,
                                  horizon_scenarios, repair_correlation,
                                  scenario_digest, shock_bytes,
                                  stress_scenarios)
from repro.verify.determinism import float_bits

seeds = st.integers(min_value=0, max_value=2**31 - 1)
dims = st.integers(min_value=1, max_value=5)


class TestByteReproducibility:
    @given(seed=seeds, dim=dims, n=st.integers(min_value=1, max_value=12))
    def test_same_seed_same_bytes(self, seed, dim, n):
        a = stress_scenarios(dim, n, seed=seed)
        b = stress_scenarios(dim, n, seed=seed)
        assert shock_bytes(a) == shock_bytes(b)
        assert scenario_digest(a) == scenario_digest(b)

    @given(seed=seeds, dim=dims, n=st.integers(min_value=2, max_value=12),
           k=st.integers(min_value=1, max_value=12))
    def test_prefix_stability(self, seed, dim, n, k):
        """Scenario ``i`` is a pure function of ``(seed, dim, i)``: asking
        for fewer scenarios yields an exact prefix."""
        k = min(k, n)
        full = stress_scenarios(dim, n, seed=seed)
        short = stress_scenarios(dim, k, seed=seed)
        assert shock_bytes(full[:k]) == shock_bytes(short)

    @given(seed=seeds, dim=dims)
    def test_distinct_seeds_distinct_bytes(self, seed, dim):
        a = stress_scenarios(dim, 4, seed=seed)
        b = stress_scenarios(dim, 4, seed=seed + 1)
        assert shock_bytes(a) != shock_bytes(b)

    @given(seed=seeds, n=st.integers(min_value=1, max_value=8))
    def test_horizon_scenarios_deterministic(self, seed, n):
        model = MultiAssetGBM.equicorrelated(2, 100.0, 0.25, 0.05, 0.3)
        a = horizon_scenarios(model, n, 10 / 252, seed=seed)
        b = horizon_scenarios(model, n, 10 / 252, seed=seed)
        assert shock_bytes(a) == shock_bytes(b)
        for s in a:
            assert len(s.spot_factors) == model.dim
            assert s.vol_factors == (1.0,) and s.rate_shift == 0.0

    def test_historical_is_fixed_and_broadcast(self):
        a, b = historical_scenarios(), historical_scenarios()
        assert shock_bytes(a) == shock_bytes(b)
        assert len(a) == 7
        m = MultiAssetGBM.equicorrelated(3, 100.0, 0.2, 0.05, 0.3)
        for s in a:
            s.apply(m)  # broadcasts to any dim without error


class TestPsdSafety:
    @given(shift=st.floats(min_value=-2.0, max_value=2.0,
                           allow_nan=False),
           dim=st.integers(min_value=2, max_value=5),
           rho=st.floats(min_value=-0.2, max_value=0.9, allow_nan=False))
    def test_corr_shock_yields_valid_market(self, shift, dim, rho):
        model = MultiAssetGBM.equicorrelated(dim, 100.0, 0.2, 0.05,
                                             max(rho, -1.0 / (dim - 1) + 1e-3))
        shocked = Scenario(label="c", corr_shift=shift).apply(model)
        corr = shocked.correlation
        assert np.array_equal(corr, corr.T)
        assert is_positive_semidefinite(corr)
        assert np.allclose(np.diag(corr), 1.0)

    def test_repair_passthrough_is_bitwise(self):
        model = MultiAssetGBM.equicorrelated(4, 100.0, 0.2, 0.05, 0.35)
        repaired = repair_correlation(model.correlation)
        assert repaired.tobytes() == np.asarray(model.correlation).tobytes()

    def test_repair_fixes_broken_matrix(self):
        broken = np.array([[1.0, 0.99, -0.99],
                           [0.99, 1.0, 0.99],
                           [-0.99, 0.99, 1.0]])
        assert not is_positive_semidefinite(broken)
        fixed = repair_correlation(broken)
        assert is_positive_semidefinite(fixed)
        assert np.allclose(np.diag(fixed), 1.0)

    def test_repair_rejects_non_square(self):
        with pytest.raises(ValidationError):
            repair_correlation(np.ones((2, 3)))


class TestIdentityScenario:
    def test_base_scenario_reproduces_model_bitwise(self, model_2d):
        applied = base_scenario().apply(model_2d)
        assert applied.spots.tobytes() == model_2d.spots.tobytes()
        assert applied.vols.tobytes() == model_2d.vols.tobytes()
        assert float_bits(applied.rate) == float_bits(model_2d.rate)
        assert (np.asarray(applied.correlation).tobytes()
                == np.asarray(model_2d.correlation).tobytes())

    def test_base_scenario_reproduces_prices_and_cache_key(self):
        from repro.serve.batching import PricingRequest, request_key
        from repro.serve.service import price_request
        from repro.workloads.generators import Workload, strike_strip

        w = strike_strip(1, dim=2)[0]
        shocked = Workload(w.name, base_scenario().apply(w.model), w.payoff,
                           w.expiry)
        a = PricingRequest(w, engine="mc", n_paths=500, seed=3, name=w.name)
        b = PricingRequest(shocked, engine="mc", n_paths=500, seed=3,
                           name=w.name)
        assert request_key(a) == request_key(b)
        assert float_bits(price_request(a).price) == \
            float_bits(price_request(b).price)

    def test_key_ignores_display_metadata(self):
        a = Scenario(label="a", spot_factors=(0.9,), axis="spot")
        b = Scenario(label="b", spot_factors=(0.9,), axis="joint")
        assert a.key == b.key
        assert a.key != Scenario(label="a", spot_factors=(0.8,)).key


class TestShapesAndValidation:
    def test_stress_draw_block_is_fixed(self):
        for dim in (1, 3):
            for s in stress_scenarios(dim, 3, seed=1):
                assert len(s.spot_factors) == dim
                assert len(s.vol_factors) == dim
                assert all(f > 0 for f in s.spot_factors)
                assert abs(s.corr_shift) <= 0.5

    def test_axis_sweep_structure(self):
        sweep = axis_sweep()
        assert len(sweep) == len(SWEEP_AXES) * 5
        per_axis = {a: [s for s in sweep if s.axis == a] for a in SWEEP_AXES}
        base = base_scenario().key
        for axis, block in per_axis.items():
            assert block[0].key == base
            assert all(s.key != base for s in block[1:])
        # rate magnitudes shift the short rate by m/10
        rates = [s.rate_shift for s in per_axis["rate"][1:]]
        assert rates == [pytest.approx(m / 10)
                         for m in (-0.10, -0.05, 0.05, 0.10)]

    def test_scenario_validation(self):
        with pytest.raises(ValidationError):
            Scenario(label="x", spot_factors=())
        with pytest.raises(ValidationError):
            Scenario(label="x", spot_factors=(-0.5,))
        with pytest.raises(ValidationError):
            Scenario(label="x", rate_shift=math.inf)
        with pytest.raises(ValidationError):
            Scenario(label="x", corr_shift=3.0)
        with pytest.raises(ValidationError):
            Scenario(label="x", spot_factors=(1.1, 0.9)).apply(
                MultiAssetGBM.single(100.0, 0.2, 0.05))

    def test_generator_argument_validation(self, model_2d):
        with pytest.raises(ValidationError):
            stress_scenarios(0, 4)
        with pytest.raises(ValidationError):
            stress_scenarios(2, 0)
        with pytest.raises(ValidationError):
            horizon_scenarios(model_2d, 4, 0.0)

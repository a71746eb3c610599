"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.market import MultiAssetGBM, constant_correlation

# Keep property tests fast and deterministic in CI: modest example counts,
# no deadline (NumPy first-call dispatch can be slow), fixed derandomization.
settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def no_draw_scopes(monkeypatch) -> None:
    """No draw scope is ever seen: every Philox normal block is drawn
    fresh and writable, as a lone task draws it. A pool forked after this
    inherits it."""
    from repro.rng import normal

    monkeypatch.setattr(normal, "current_scope", lambda: None)


@pytest.fixture
def memos_off(monkeypatch):
    """The pricing path with its memos off: every request-key fragment
    lookup misses (the text is encoded afresh) and no draw scope is seen.
    The price cache stays on: tests assert its hits, and its hit equals
    the recomputed miss bit for bit (``test_serve_cache.py``)."""
    from repro.serve.batching import _FragmentMemo

    monkeypatch.setattr(_FragmentMemo, "get", lambda self, key: None)
    no_draw_scopes(monkeypatch)


@pytest.fixture
def model_1d() -> MultiAssetGBM:
    """The canonical single-asset test market: S=100, σ=20%, r=5%."""
    return MultiAssetGBM.single(100.0, 0.2, 0.05)


@pytest.fixture
def model_2d() -> MultiAssetGBM:
    """Two-asset market with distinct vols and ρ=0.4 (Stulz/Margrabe tests)."""
    return MultiAssetGBM(
        [100.0, 95.0], [0.2, 0.3], 0.05, correlation=constant_correlation(2, 0.4)
    )


@pytest.fixture
def model_4d() -> MultiAssetGBM:
    """Equicorrelated four-asset basket market."""
    return MultiAssetGBM.equicorrelated(4, 100.0, 0.25, 0.05, 0.3)

"""A scenario meets a book in one place, once per market.

:func:`repro.risk.scenarios.shock_book` is the only caller of
:meth:`Scenario.apply` in the risk tier. These tests pin the mechanism,
not the clock: ``apply`` runs exactly ``n_scenarios × n_distinct_models``
times under every entry point that shocks a book, contracts on one
market share the one shocked instance, and nothing about the shocked
market itself changed — the identity scenario still reproduces the book
bitwise, a correlation shock that leaves the PSD cone is still repaired
(once), and a scenario that does not fit the model still raises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.market.correlation import is_positive_semidefinite
from repro.risk import scenarios as scenarios_module
from repro.risk.bridge import risk_book, sweep_requests
from repro.risk.scenarios import (Scenario, base_scenario, repair_correlation,
                                  shock_book, stress_scenarios)
from repro.risk.var import portfolio_deltas, revalue_book
from repro.serve import PriceCache, PricingService
from repro.workloads.generators import random_portfolio, strike_strip

N_PATHS = 200


@pytest.fixture
def applied(monkeypatch):
    """Every model :meth:`Scenario.apply` is called on, in call order."""
    calls = []
    real = Scenario.apply

    def counting(self, model):
        calls.append(model)
        return real(self, model)

    monkeypatch.setattr(Scenario, "apply", counting)
    return calls


def _books():
    strip = strike_strip(5, dim=2)
    two_markets = strip + strike_strip(3, dim=2, vol=0.3)
    return {"strip": (strip, 1), "two-markets": (two_markets, 2),
            "portfolio": (random_portfolio(4, dim=2), 4)}


@pytest.mark.parametrize("name", ["strip", "two-markets", "portfolio"])
class TestApplyOncePerMarket:
    def test_revalue_book(self, name, applied):
        book, n_models = _books()[name]
        revalue_book(book, stress_scenarios(2, 3, seed=1), n_paths=N_PATHS)
        assert len(applied) == 3 * n_models

    def test_portfolio_deltas(self, name, applied):
        book, n_models = _books()[name]
        with PricingService(cache=PriceCache(256),
                            max_batch=len(book)) as service:
            portfolio_deltas(book, service=service, n_paths=N_PATHS)
        assert len(applied) == 2 * 2 * n_models  # ±bump per asset

    def test_sweep_requests(self, name, applied):
        book, n_models = _books()[name]
        tagged = sweep_requests(book, stress_scenarios(2, 3, seed=1),
                                n_paths=N_PATHS)
        assert len(applied) == 3 * n_models
        assert len(tagged) == 4 * len(book)


def test_risk_book_applies_once_per_scenario(applied):
    book = risk_book(10, seed=3, n_base=4)   # base + 2 stress scenarios
    assert len(book) == 10
    assert len(applied) == 3
    assert len({id(m) for m in applied}) == 1  # the one shared ladder market


class TestShockBook:
    def test_contracts_on_one_market_share_the_shocked_instance(self):
        strip = strike_strip(4, dim=2)
        twin = strike_strip(2, dim=2)     # equal values, distinct instance
        shocked = shock_book(strip + twin, stress_scenarios(2, 1, seed=2)[0],
                             prefix="s-")
        assert len({id(w.model) for w in shocked[:4]}) == 1
        assert len({id(w.model) for w in shocked[4:]}) == 1
        assert shocked[0].model is not shocked[4].model
        assert shocked[0].model is not strip[0].model
        assert [w.name for w in shocked] == [
            "s-" + w.name for w in strip + twin]
        assert all(s.payoff is w.payoff and s.expiry == w.expiry
                   for s, w in zip(shocked, strip + twin))

    def test_identity_scenario_reproduces_the_book_bitwise(self):
        book = strike_strip(3, dim=2)
        report = revalue_book(book, [base_scenario()], n_paths=N_PATHS)
        assert report.values[0].hex() == report.base_value.hex()
        assert (report.cache_hits, report.cache_misses) == (3, 3)

    def test_correlation_shock_is_repaired_once(self, monkeypatch):
        repairs = []

        def counting(matrix):
            repairs.append(matrix)
            return repair_correlation(matrix)

        monkeypatch.setattr(scenarios_module, "repair_correlation", counting)
        book = strike_strip(4, dim=3)
        scenario = Scenario(label="breakdown", corr_shift=-0.9)
        shocked = shock_book(book, scenario)
        assert len(repairs) == 1
        shifted = book[0].model.correlation - 0.9 * (1.0 - np.eye(3))
        assert not is_positive_semidefinite(shifted)
        corr = np.asarray(shocked[0].model.correlation)
        assert corr.tobytes() == repair_correlation(shifted).tobytes()
        assert is_positive_semidefinite(corr)
        assert all(w.model is shocked[0].model for w in shocked)

    def test_a_scenario_that_does_not_fit_still_raises(self):
        book = strike_strip(3, dim=2)
        misfit = Scenario(label="d3", spot_factors=(1.1, 0.9, 1.0))
        with pytest.raises(ValidationError):
            shock_book(book, misfit)
        with pytest.raises(ValidationError):
            revalue_book(book, [misfit], n_paths=N_PATHS)
        with pytest.raises(ValidationError):
            sweep_requests(book, [misfit], n_paths=N_PATHS)

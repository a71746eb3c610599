"""A risk sweep is one draw scope: one common-random-numbers block per sweep.

``revalue_book`` prices the base book and every scenario's shocked book
on one seed and one path budget, so every scenario's strip asks for the
same Philox ``(key, position, n)`` normal block. The sweep runs inside
one :class:`~repro.rng.normal.DrawScope` (joined if one is active), so
that block is drawn once per sweep instead of once per scenario. These
tests hold the contract:

* draws: a serial sweep of S scenarios draws the block once; with
  scoping disabled it draws it S + 1 times; ``portfolio_deltas`` draws
  once for its ``2·dim`` revaluations; a pool worker draws it at most
  once per sweep;
* bits: every ``pnl_digest`` equals the one of a run with scoping
  disabled, on a serial service and on a 2-worker process pool;
* lifetime: no scope is active after a sweep returns or raises, an
  enclosing scope is joined and left active, and two back-to-back sweeps
  share nothing.
"""

from __future__ import annotations

import gc
import os
import weakref

import pytest

from repro.errors import ValidationError
from repro.parallel import ProcessBackend, SerialBackend
from repro.risk import portfolio_deltas, revalue_book, stress_scenarios
from repro.risk.scenarios import Scenario
from repro.rng import normal as normal_mod
from repro.rng.normal import DrawScope, current_scope, draw_scope
from repro.serve import PriceCache, PricingService
from repro.workloads.generators import strike_strip
from tests.conftest import no_draw_scopes as _unscoped

N_PATHS = 600
SEED = 41
S = 6


def _book():
    return strike_strip(4, dim=2)


#: Drawn once, here: a spy installed by a test sees only the sweep's draws.
SCENARIOS = stress_scenarios(2, S, seed=5)


def _service(backend=None):
    return PricingService(backend or SerialBackend(), cache=PriceCache(512),
                          max_batch=len(_book()))


def _spy(monkeypatch, record):
    draw = normal_mod._inverse_block

    def spy(gen, n):
        record(gen, n)
        return draw(gen, n)

    monkeypatch.setattr(normal_mod, "_inverse_block", spy)


def _block_key(gen, n) -> tuple:
    return int(gen._key0), int(gen._key1), gen.position, n


def _sweep(service, scenarios=SCENARIOS):
    return revalue_book(_book(), scenarios, n_paths=N_PATHS, seed=SEED,
                        service=service)


def test_a_serial_sweep_draws_its_block_once(monkeypatch):
    draws, scopes = [], []
    _spy(monkeypatch, lambda gen, n: (draws.append(_block_key(gen, n)),
                                      scopes.append(current_scope())))
    with _service() as service:
        _sweep(service)
    assert len(draws) == 1
    assert scopes[0] is not None


def test_unscoped_the_sweep_draws_it_per_scenario(monkeypatch):
    draws = []
    _spy(monkeypatch, lambda gen, n: draws.append(_block_key(gen, n)))
    _unscoped(monkeypatch)
    with _service() as service:
        _sweep(service)
    assert len(draws) == S + 1 and len(set(draws)) == 1


def test_portfolio_deltas_draw_once(monkeypatch):
    draws = []
    _spy(monkeypatch, lambda gen, n: draws.append(_block_key(gen, n)))
    with _service() as service:
        deltas = portfolio_deltas(_book(), service=service, n_paths=N_PATHS,
                                  seed=SEED)
    assert len(draws) == 1
    monkeypatch.undo()
    _unscoped(monkeypatch)
    with _service() as service:
        unscoped = portfolio_deltas(_book(), service=service,
                                    n_paths=N_PATHS, seed=SEED)
    assert deltas.tobytes() == unscoped.tobytes()


def test_serial_digests_equal_the_unscoped_ones(monkeypatch):
    with _service() as service:
        cold, hot = _sweep(service), _sweep(service)
    _unscoped(monkeypatch)
    with _service() as service:
        want = _sweep(service)
    assert cold.pnl_digest() == hot.pnl_digest() == want.pnl_digest()
    assert cold.levels == want.levels


def _pool_sweep():
    with ProcessBackend(2) as backend, _service(backend) as service:
        return _sweep(service)


def test_pooled_digests_equal_the_unscoped_ones(monkeypatch, tmp_path):
    log = tmp_path / "draws.txt"

    def record(gen, n):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {_block_key(gen, n)}\n".replace(", ", ","))

    _spy(monkeypatch, record)  # before the pool forks: the workers inherit it
    scoped = _pool_sweep()
    draws = [tuple(line.split()) for line in open(log)]
    assert os.getpid() not in {int(pid) for pid, _ in draws}
    assert len(draws) == len(set(draws)) <= 2   # at most once per worker
    monkeypatch.undo()
    _unscoped(monkeypatch)
    assert scoped.pnl_digest() == _pool_sweep().pnl_digest()


def test_no_scope_outlives_a_sweep():
    seen = []
    with _service() as service:
        real = service.price_many

        def spy(requests):
            seen.append(weakref.ref(current_scope()))
            return real(requests)

        service.price_many = spy
        _sweep(service)
    assert current_scope() is None
    assert len(seen) == S + 1 and len({ref() for ref in seen}) == 1
    gc.collect()
    assert seen[0]() is None


def test_no_scope_outlives_a_sweep_that_raises():
    bad = Scenario(label="bad", spot_factors=(1.0, 1.0, 1.0))  # dim 3 on 2
    with _service() as service, pytest.raises(ValidationError,
                                              match="spot_factors"):
        _sweep(service, SCENARIOS[:2] + [bad])
    assert current_scope() is None


def test_an_enclosing_scope_is_joined(monkeypatch):
    scopes = []
    _spy(monkeypatch, lambda gen, n: scopes.append(current_scope()))
    outer = DrawScope(-1)
    with draw_scope(outer), _service() as service:
        _sweep(service)
        assert current_scope() is outer
    assert scopes == [outer]
    assert current_scope() is None


def test_back_to_back_sweeps_share_nothing(monkeypatch):
    draws, scopes = [], []
    _spy(monkeypatch, lambda gen, n: (draws.append(_block_key(gen, n)),
                                      scopes.append(current_scope())))
    with _service() as first, _service() as second:
        a, b = _sweep(first), _sweep(second)
    assert a.pnl_digest() == b.pnl_digest()
    assert len(draws) == 2 and draws[0] == draws[1]
    assert scopes[0] is not scopes[1]

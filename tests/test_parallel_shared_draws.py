"""A backend map is a draw scope: shared Philox blocks, drawn once, same bits.

Inside one ``ExecutionBackend.map`` of two or more tasks, a Philox4x32
inverse-CDF normal block is drawn once per process and handed read-only
to every task that asks for the same ``(key, position, n)``. These tests
hold the contract:

* prices: any batch mapped on Serial, Thread(2) or Process(2) equals each
  task priced alone, bit for bit (a hypothesis property over same-seed and
  distinct-seed requests, p ∈ {1, 2, 3}, d ∈ 1..5, Antithetic and
  path-dependent contracts);
* the generator: a hit leaves it where a draw would;
* sharing: a book of same-seed singles draws each rank block once per
  process, and two maps share nothing;
* bounds: a block over the cap is never kept, a scope retains at most the
  cap, and an in-process scope dies with its map;
* read-only: a scoped block refuses in-place writes, an unscoped one does
  not.

Read-only audit — every in-library consumer of ``gen.normals`` only reads
its block (each writes into fresh arrays or reshaped views it never
assigns through):

* ``mc/variance_reduction.py`` (``_draw_normals``; Antithetic negates into
  a new array; Stratified copies its normals into its own ``z``);
* ``batch/kernels.py`` (``strip_partial`` via ``_draw_normals``);
* ``market/gbm.py`` (``sample_terminal``/``sample_paths`` → ``correlate``,
  a fresh matmul), ``market/heston.py``, ``market/merton.py``,
  ``market/correlation.py``;
* ``mc/importance.py``, ``mc/multilevel.py`` (``_coarsen`` builds a new
  array), ``mc/qmc.py`` (padding normals are concatenated),
  ``mc/greeks.py``;
* ``risk/scenarios.py``.
"""

from __future__ import annotations

import gc
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import ParallelMCPricer
from repro.mc.variance_reduction import Antithetic
from repro.parallel import backends as backends_mod
from repro.parallel import ProcessBackend, SerialBackend, ThreadBackend
from repro.payoffs import AsianArithmeticCall
from repro.rng import Philox4x32
from repro.rng import normal as normal_mod
from repro.rng.normal import (SCOPE_CAP_BYTES, DrawScope, current_scope,
                              draw_scope)
from repro.serve import PricingRequest, PricingService, price_request
from repro.workloads.generators import Workload, random_portfolio

N_PATHS = 3_000


def _market(dim: int, index: int) -> Workload:
    return random_portfolio(1, dim=dim, seed=100 * dim + index)[0]


def _task(kind: str, dim: int, market: int, seed: int, p: int):
    w = _market(dim, market)
    if kind == "asian":
        w = Workload(w.name, w.model, AsianArithmeticCall(95.0, dim=dim),
                     w.expiry)
        return PricingRequest(w, engine="mc", n_paths=N_PATHS, steps=4,
                              seed=seed, p=p)
    if kind == "antithetic":
        return ("antithetic", w, seed, p)
    return PricingRequest(w, engine="mc", n_paths=N_PATHS, seed=seed, p=p)


def _price(task) -> tuple[str, str]:
    """Module-level (picklable) worker: a request, or an Antithetic run."""
    if isinstance(task, PricingRequest):
        quote = price_request(task)
        return quote.price.hex(), quote.stderr.hex()
    _, w, seed, p = task
    result = ParallelMCPricer(N_PATHS, technique=Antithetic(),
                              seed=seed).price(w.model, w.payoff, w.expiry, p)
    return result.price.hex(), result.stderr.hex()


@pytest.fixture(scope="module")
def pools():
    with ThreadBackend(2) as thread, ProcessBackend(2) as process:
        yield {"serial": SerialBackend(), "thread": thread,
               "process": process}


_tasks = st.lists(
    st.tuples(st.sampled_from(["plain", "plain", "antithetic", "asian"]),
              st.integers(1, 5), st.integers(0, 2), st.sampled_from([7, 8]),
              st.sampled_from([1, 2, 3])),
    min_size=2, max_size=6)


@given(specs=_tasks)
def test_a_scoped_map_prices_every_task_as_alone(pools, specs):
    """Same-seed tasks on different markets share blocks; each quote still
    carries the bits it has priced alone, on every backend."""
    tasks = [_task(*spec) for spec in specs]
    alone = [_price(t) for t in tasks]
    for name, backend in pools.items():
        assert backend.map(_price, tasks) == alone, name


def test_a_hit_leaves_the_generator_where_a_draw_would():
    drawn, hit, fresh = Philox4x32(5), Philox4x32(5), Philox4x32(5)
    for gen in (drawn, hit, fresh):
        gen.jump(3)  # an odd position: the key must carry it
    with draw_scope(DrawScope(0)):
        z_drawn = drawn.normals(1_001)
        z_hit = hit.normals(1_001)
    z_fresh = fresh.normals(1_001)
    assert z_hit is z_drawn
    assert z_hit.tobytes() == z_fresh.tobytes()
    assert hit.position == drawn.position == fresh.position == 1_004
    assert hit.normals(10).tobytes() == fresh.normals(10).tobytes()


def test_the_key_is_the_whole_block():
    """Another key, position or length is another block."""
    with draw_scope(DrawScope(0)):
        base = Philox4x32(5).normals(100)
        others = [Philox4x32(6).normals(100), Philox4x32(5).normals(99)]
        moved = Philox4x32(5)
        moved.jump(1)
        others.append(moved.normals(100))
    assert all(z is not base for z in others)
    assert others[0].tobytes() != base.tobytes()
    assert others[1].tobytes() == base[:99].tobytes()
    assert others[2][:99].tobytes() == base[1:].tobytes()


def test_only_philox_inverse_draws_are_shared():
    from repro.rng import Lcg64

    with draw_scope(DrawScope(0)):
        a, b = Lcg64(5).normals(100), Lcg64(5).normals(100)
        c = Philox4x32(5).normals(100, method="boxmuller")
    assert a is not b and a.flags.writeable and c.flags.writeable


def _book(n: int = 8) -> list[PricingRequest]:
    """Same-seed 4-asset singles at p = 2 on n markets: the book's shape."""
    return [PricingRequest(w, engine="mc", n_paths=N_PATHS, seed=719, p=2)
            for w in random_portfolio(n, dim=4, seed=3)]


def _spy(monkeypatch, record):
    draw = normal_mod._inverse_block

    def spy(gen, n):
        record(gen, n)
        return draw(gen, n)

    monkeypatch.setattr(normal_mod, "_inverse_block", spy)


def _block_key(gen, n) -> tuple:
    return int(gen._key0), int(gen._key1), gen.position, n


def test_a_serial_book_draws_each_rank_block_once(monkeypatch):
    book = _book()
    alone = [_price(r) for r in book]
    draws: list[tuple] = []
    _spy(monkeypatch, lambda gen, n: draws.append(_block_key(gen, n)))
    with PricingService(SerialBackend(), cache=None,
                        max_batch=len(book)) as service:
        quotes = service.price_many(book)
    assert len(draws) == 2 and len(set(draws)) == 2  # rank 0 and rank 1
    assert [(q.price.hex(), q.stderr.hex()) for q in quotes] == alone


def _pool_draws(path) -> list[tuple]:
    with open(path) as fh:
        return [tuple(line.split()) for line in fh]


def test_a_pooled_book_draws_each_rank_block_once_per_worker(monkeypatch,
                                                             tmp_path):
    book = _book()
    alone = [_price(r) for r in book]
    log = tmp_path / "draws.txt"

    def record(gen, n):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {_block_key(gen, n)}\n".replace(", ", ","))

    _spy(monkeypatch, record)  # before the pool forks: the workers inherit it
    with ProcessBackend(2) as backend, PricingService(
            backend, cache=None, max_batch=len(book)) as service:
        quotes = service.price_many(book)
    draws = _pool_draws(log)
    assert os.getpid() not in {int(pid) for pid, _ in draws}
    assert len(draws) == len(set(draws)) <= 2 * 2  # workers x rank blocks
    assert len({key for _, key in draws}) == 2
    assert [(q.price.hex(), q.stderr.hex()) for q in quotes] == alone


def test_two_maps_share_nothing(monkeypatch, tmp_path):
    """A scope dies with its map: a repeated map redraws (what keeps a
    repeated timing, F15d's or a probe's, honest)."""
    book = _book(4)
    draws: list[tuple] = []
    _spy(monkeypatch, lambda gen, n: draws.append(_block_key(gen, n)))
    backend = SerialBackend()
    first = backend.map(_price, book)
    assert len(draws) == 2
    assert backend.map(_price, book) == first
    assert len(draws) == 4 and set(draws[:2]) == set(draws[2:])


def _held_token(_):
    return os.getpid(), backends_mod._worker_scope.token


def test_a_pool_worker_holds_only_the_newest_maps_scope():
    with ProcessBackend(2) as backend:
        first = backend.map(_held_token, range(6))
        second = backend.map(_held_token, range(6))
    assert len({token for _, token in first}) == 1
    assert len({token for _, token in second}) == 1
    assert first[0][1] != second[0][1]


def test_a_pickled_scoped_call_carries_only_the_token(monkeypatch):
    """What a pool worker unpickles: its own scope for the map's token,
    kept across that map's tasks and replaced by the next map's."""
    import pickle

    monkeypatch.setattr(backends_mod, "_worker_scope", None)
    scope = DrawScope(41)
    first = pickle.loads(pickle.dumps(backends_mod._ScopedCall(_price, scope)))
    again = pickle.loads(pickle.dumps(backends_mod._ScopedCall(_price, scope)))
    assert first.worker is _price and first.scope is not scope
    assert first.scope.token == 41 and again.scope is first.scope
    later = pickle.loads(pickle.dumps(
        backends_mod._ScopedCall(_price, DrawScope(42))))
    assert later.scope.token == 42 and later.scope is not first.scope


def test_submit_and_one_task_maps_open_no_scope():
    backend = SerialBackend()
    assert backend.submit(lambda _: current_scope(), 0).result() is None
    assert backend.map(lambda _: current_scope(), [0]) == [None]
    assert current_scope() is None


def test_a_nested_map_joins_the_enclosing_scope():
    def outer(_):
        scope = current_scope()
        inner = SerialBackend().map(lambda _: current_scope(), [0, 1])
        return scope is not None and all(s is scope for s in inner)

    assert SerialBackend().map(outer, [0, 1]) == [True, True]


@pytest.mark.parametrize("make", [SerialBackend, lambda: ThreadBackend(2)])
def test_an_in_process_scope_is_gone_after_its_map(make):
    with make() as backend:
        refs = backend.map(lambda _: weakref.ref(current_scope()), [0, 1])
    gc.collect()
    assert refs[0]() is None and refs[1]() is None
    assert current_scope() is None


def test_a_block_over_the_cap_is_never_kept():
    n = 125_000 * 4  # one scaling_mc rank: 3.9 MiB
    assert 8 * n > SCOPE_CAP_BYTES
    scope = DrawScope(0)
    with draw_scope(scope):
        a, b = Philox4x32(3).normals(n), Philox4x32(3).normals(n)
    assert scope.nbytes == 0 and a is not b
    assert a.flags.writeable and a.tobytes() == b.tobytes()


def test_a_scope_retains_at_most_the_cap():
    scope = DrawScope(0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with draw_scope(scope):
            for seed in range(20):  # 20 x 320 kB blocks, 3x the cap
                Philox4x32(seed).normals(40_000)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert scope.nbytes <= SCOPE_CAP_BYTES
    assert retained <= SCOPE_CAP_BYTES + (64 << 10)
    # LRU: the newest blocks stay.
    with draw_scope(scope):
        gen = Philox4x32(19)
        assert not gen.normals(40_000).flags.writeable


def test_a_scoped_block_refuses_writes_an_unscoped_one_does_not():
    with draw_scope(DrawScope(0)):
        z = Philox4x32(1).normals(100)
    with pytest.raises(ValueError):
        z[0] = 1.0
    with pytest.raises(ValueError):
        z.reshape(50, 2)[0] += 1.0
    fresh = Philox4x32(1).normals(100)
    fresh[0] = 1.0
    assert fresh.flags.writeable


def test_mapped_tasks_see_read_only_blocks():
    def write(_):
        z = Philox4x32(1).normals(100)
        try:
            z[0] = 0.0
        except ValueError:
            return "refused"
        return "written"

    assert SerialBackend().map(write, [0, 1]) == ["refused", "refused"]
    assert np.isfinite(Philox4x32(1).normals(100)).all()


def test_threads_sharing_a_scope_lose_nothing():
    """Eight threads (more than cores) draw overlapping blocks into one
    scope with a 1 µs switch interval: every block carries its fresh bits
    and the byte count matches the blocks kept."""
    import sys
    import threading

    keys = [(seed, 20_000 + 2 * seed) for seed in range(24)]  # 2x the cap
    fresh = {k: Philox4x32(k[0]).normals(k[1]).tobytes() for k in keys}
    scope, bad = DrawScope(0), []

    def draw(offset):
        with draw_scope(scope):
            for i in range(3 * len(keys)):
                seed, n = keys[(offset + i) % len(keys)]
                if Philox4x32(seed).normals(n).tobytes() != fresh[seed, n]:
                    bad.append((seed, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []
    assert scope.nbytes == sum(b.nbytes for b in scope._entries.values())
    assert scope.nbytes <= SCOPE_CAP_BYTES

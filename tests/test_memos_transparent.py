"""The memos on the pricing path are transparent: with them off, every
price and every key keeps its bits.

Three memos could serve a stale value: the request-key fragment memo
(:mod:`repro.serve.batching`), a draw scope (:mod:`repro.rng.normal`) and
the price cache, all one :class:`~repro.utils.lru.BoundedLRU`. The
``memos_off`` fixture (``tests/conftest.py``) makes every fragment lookup
miss and hides every draw scope; the price cache stays on, held to its
own hit == recomputed-miss contract in ``test_serve_cache.py``. Under it:

* the committed golden corpus replays bit for bit;
* the batched replay and ``run_determinism()`` (process-backend checks
  included) give the memo-on run's digests;
* a collision set — values a memo keyed on too little would merge — keys
  and prices as it does with the memos on.

The memo-on digests are computed once per module: a module-scoped
fixture is set up before the function-scoped ``memos_off``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.market import MultiAssetGBM
from repro.parallel import SerialBackend
from repro.payoffs import BasketCall, Call, SpreadCall
from repro.risk import revalue_book, stress_scenarios
from repro.rng.normal import DrawScope, draw_scope
from repro.serve import PriceCache, PricingRequest, PricingService
from repro.serve.batching import _FRAGMENTS, request_keys
from repro.verify.batched import run_batched_replay
from repro.verify.determinism import float_bits, run_determinism
from repro.verify.golden import diff_golden, load_snapshot
from repro.workloads.generators import Workload, strike_strip

GOLDEN = Path(__file__).parent / "golden" / "verify_corpus.json"
N_PATHS = 400
SEED = 9


def _digest(parts) -> str:
    return hashlib.sha256("|".join(map(str, parts)).encode()).hexdigest()


def _service() -> PricingService:
    return PricingService(SerialBackend(), cache=PriceCache(64))


def _priced(requests) -> tuple[str, str]:
    """(key digest, price digest) of one ``price_many`` call; requests
    that do not fuse run as tasks of one map, so in one draw scope."""
    with _service() as service:
        quotes = service.price_many(requests)
    return (_digest(request_keys(requests)),
            _digest(float_bits(x) for q in quotes for x in (q.price, q.stderr)))


def _requests(workloads, n_paths=(N_PATHS,)) -> list[PricingRequest]:
    return [PricingRequest(w, n_paths=n, seed=SEED)
            for w in workloads for n in n_paths]


def _single(rate=0.05, spot=100.0) -> MultiAssetGBM:
    model = MultiAssetGBM.single(100.0, 0.2, rate)
    # Spots are validated positive: set a signed zero behind the frozen
    # model's back, as the canonical-JSON edge strategy does.
    object.__setattr__(model, "spots", np.array([spot]))
    return model


def _pair(dividends=(0.0, 0.0)) -> MultiAssetGBM:
    return MultiAssetGBM([100.0, 95.0], [0.2, 0.3], 0.05,
                         dividends=list(dividends),
                         correlation=np.array([[1.0, 0.4], [0.4, 1.0]]))


class _Tagged(BasketCall):
    """A two-asset basket call carrying an inert array: the key reads
    ``tag``, the price does not."""

    def __init__(self, tag):
        super().__init__([0.5, 0.5], 100.0)
        self.tag = tag


def _signed_zero_spots():
    with np.errstate(divide="ignore"):   # log-spot of a zero spot
        return _priced(_requests(
            Workload("s", _single(spot=s), Call(100.0), 1.0)
            for s in (0.0, -0.0)))


def _signed_zero_rates():
    return _priced(_requests(Workload("r", _single(rate=r), Call(100.0), 1.0)
                             for r in (0.0, -0.0)))


def _signed_zero_dividends():
    return _priced(_requests(Workload("q", _pair(q), BasketCall([1, 1], 100.0),
                                      1.0)
                             for q in ((0.0, 0.0), (-0.0, 0.0))))


def _signed_zero_strikes():
    model = _pair()
    return _priced(_requests(Workload("k", model, SpreadCall(k), 1.0)
                             for k in (0.0, -0.0)))


def _dtypes_of_equal_bytes():
    model = _pair()
    tags = (np.zeros(2), np.zeros(2, dtype=np.int64),
            np.array([0.5, 0.1]), np.array([0.5, 0.1], dtype=np.float32))
    return _priced(_requests(Workload("t", model, _Tagged(t), 1.0)
                             for t in tags))


def _equal_valued_models():
    return _priced(_requests(Workload("m", _pair(), BasketCall([1, 1], 100.0),
                                      1.0) for _ in range(2)))


def _one_seed_two_budgets_in_one_map():
    return _priced(_requests([Workload("n", _pair(), BasketCall([1, 1], 100.0),
                                       1.0)], n_paths=(N_PATHS, 2 * N_PATHS)))


def _one_seed_two_budgets_in_one_sweep():
    """Two sweeps at different path budgets, both joining one scope."""
    book, scenarios = strike_strip(3, dim=2), stress_scenarios(2, 2, seed=5)
    with _service() as service, draw_scope(DrawScope(0)):
        reports = [revalue_book(book, scenarios, n_paths=n, seed=SEED,
                                service=service)
                   for n in (N_PATHS, 2 * N_PATHS)]
    return (_digest(request_keys(
        _requests(book, n_paths=(N_PATHS, 2 * N_PATHS)))),
            _digest(r.pnl_digest() for r in reports))


COLLISIONS = {f.__name__.lstrip("_"): f for f in (
    _signed_zero_spots, _signed_zero_rates, _signed_zero_dividends,
    _signed_zero_strikes, _dtypes_of_equal_bytes, _equal_valued_models,
    _one_seed_two_budgets_in_one_map, _one_seed_two_budgets_in_one_sweep)}


def _batched() -> str:
    return _digest((r.case, r.engine, r.ok, r.skipped,
                    r.detail.get("oracle_bits"), r.detail.get("batched_bits"))
                   for r in run_batched_replay())


def _determinism() -> str:
    results = run_determinism()
    assert all(r.ok for r in results), "\n".join(map(str, results))
    return _digest((r.check, r.subject, sorted(r.bits.items()))
                   for r in results)


def _outcome(case):
    """The case's digests, or the error it raised: a memo serving a block
    of the wrong length fails inside the engine, and that fails only the
    case's own test."""
    try:
        return case()
    except Exception as exc:
        return repr(exc)


@pytest.fixture(scope="module")
def memo_on() -> dict:
    hits = _FRAGMENTS.hits
    digests = {name: _outcome(case) for name, case in COLLISIONS.items()}
    digests["batched"] = _batched()
    digests["determinism"] = _determinism()
    assert _FRAGMENTS.hits > hits   # the memo was on and served fragments
    return digests


def test_the_golden_corpus_replays_bit_for_bit(memos_off):
    report = diff_golden(load_snapshot(GOLDEN))
    assert report.ok, "\n".join(str(d) for d in report.failures)
    assert [float_bits(d.current) for d in report.deltas] == [
        float_bits(d.golden) for d in report.deltas]


def test_the_batched_replay_keeps_its_digest(memo_on, memos_off):
    assert _batched() == memo_on["batched"]


def test_the_determinism_suite_keeps_its_digest(memo_on, memos_off):
    assert _determinism() == memo_on["determinism"]


@pytest.mark.parametrize("name", sorted(COLLISIONS))
def test_a_collision_case_keys_and_prices_alike(name, memo_on, memos_off):
    assert COLLISIONS[name]() == memo_on[name]


"""``canonical_json`` went to the C encoder; its text may not move a byte.

Every cache key, shard route, scenario key, decision-relevant batch key
and golden config hash is a SHA-256 of :func:`canonical_json`'s output.
The function used to pre-walk each document in Python (``_jsonable``)
before ``json.dumps``; it now hands ``str``-keyed documents straight to
the C encoder with a numpy ``default=`` hook. The old implementation is
kept here, verbatim, as the reference oracle: the hypothesis property
holds the two equal on everything the old one accepted. Request keys
are joined from fragments by ``request_keys``, which takes each market,
payoff and engine-settings fragment from a bounded memo keyed on the
fragment's value (a market once per model instance per call);
two more properties hold every key of a mixed batch, and of a batch
whose values compare equal but encode differently (``-0.0``/``0.0``,
``1``/``1.0``/``True``, NaN, reshaped and strided arrays, a market
mutated in place), to the reference digest of the whole request
document. The explicit
tests pin the digests built on top — the golden verify corpus, ledger
config digests, and the request digests of the five end-to-end
benchmark workloads — to literals captured at b4bacfa.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import random
import sys
import threading
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.serve.batching as batching
from repro.batch.strip import batch_key
from repro.market.gbm import MultiAssetGBM
from repro.payoffs import (AsianArithmeticCall, BasketCall, CallOnMax,
                           GeometricBasketCall, SpreadCall)
from repro.risk.scenarios import shock_book, stress_scenarios
from repro.serve.batching import PricingRequest, request_key, request_keys
from repro.verify.contracts import (_str_keyed, canonical_json, config_hash,
                                    default_corpus, describe_case,
                                    describe_workload)
from repro.workloads.generators import (Workload, random_portfolio,
                                       strike_strip)

GOLDEN = Path(__file__).parent / "golden" / "verify_corpus.json"


# -- the reference oracle: canonical_json as it was at b4bacfa ---------------

def _reference_jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_jsonable(v) for v in value]
    return value


def reference_canonical_json(obj) -> str:
    return json.dumps(_reference_jsonable(obj), sort_keys=True,
                      separators=(",", ":"))


def _reference_key(doc) -> str:
    return hashlib.sha256(reference_canonical_json(doc).encode()).hexdigest()


# -- the property ------------------------------------------------------------

_floats = st.floats(allow_nan=True, allow_infinity=True)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**12, 10**12), _floats,
    st.text(max_size=6),
    _floats.map(np.float64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    st.integers(-2**40, 2**40).map(np.int64),
    st.integers(0, 255).map(np.uint8),
)
_arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64]),
    shape=hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3))
_leaves = st.one_of(_scalars, _arrays)

_str_keys = st.text(max_size=4)
_any_keys = st.one_of(_str_keys, st.integers(-200, 200), st.booleans(),
                      st.none(), _floats)


def _documents(keys):
    return st.recursive(
        _leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(keys, inner, max_size=4)),
        max_leaves=12)


class TestMatchesReference:
    @given(doc=_documents(_str_keys))
    def test_str_keyed_documents(self, doc):
        """The C-encoder path (every key a ``str``)."""
        assert _str_keyed(doc)
        assert canonical_json(doc) == reference_canonical_json(doc)

    @given(doc=_documents(_any_keys))
    def test_documents_with_any_keys(self, doc):
        """Int/float/bool/None keys, mixed and nested."""
        assert canonical_json(doc) == reference_canonical_json(doc)

    def test_non_str_keys_are_stringified_then_sorted(self):
        """The trap: the raw encoder would sort ints numerically and
        write ``true``; the canonical text stringifies first."""
        doc = {2: "b", 10: "a", True: None, None: 1.5, 0.5: [1]}
        assert not _str_keyed(doc)
        assert not _str_keyed({"outer": [({"ok": 1}, {7: 1})]})
        assert canonical_json(doc) == \
            '{"0.5":[1],"10":"a","2":"b","None":1.5,"True":null}'
        assert canonical_json({"k": {3: 1, 20: 2}}) == '{"k":{"20":2,"3":1}}'
        assert canonical_json({1: "int", "1": "str"}) == \
            reference_canonical_json({1: "int", "1": "str"})

    def test_numpy_leaves_and_empties(self):
        doc = {"nan": np.float64("nan"), "inf": [np.float64("-inf")],
               "zero_d": np.array(2.5), "two_d": np.eye(2),
               "f32": np.float32(0.1), "int": np.int64(-3), "tuple": (1, 2),
               "empty": [{}, [], (), np.zeros((0, 2))], "text": "é\n"}
        assert canonical_json(doc) == reference_canonical_json(doc)
        assert canonical_json(np.arange(3)) == "[0,1,2]"
        assert canonical_json(np.float64(1.5)) == "1.5"

    @pytest.mark.parametrize("bad", [np.bool_(True), np.complex128(1),
                                     object(), {1, 2}])
    def test_what_the_reference_rejects_is_still_rejected(self, bad):
        with pytest.raises(TypeError):
            reference_canonical_json({"x": bad})
        with pytest.raises(TypeError):
            canonical_json({"x": bad})


# -- request keys, joined per batch ------------------------------------------

def _request_doc(r) -> dict:
    """The document a request key is the digest of."""
    return {"contract": describe_workload(r.workload), "engine": r.engine,
            "settings": r.settings()}


#: (spots, vols, rate, rho) of the 2-asset markets a batch draws from.
_MARKETS = (([100.0, 95.0], [0.2, 0.3], 0.05, 0.4),
            ([100.0, 100.0], [0.25, 0.25], 0.03, 0.0),
            ([90.0, 110.0], [0.3, 0.2], 0.04, -0.2))
_PAYOFFS = (lambda k: BasketCall([1, 1], k), CallOnMax, SpreadCall,
            lambda k: GeometricBasketCall([0.5, 0.5], k),
            lambda k: AsianArithmeticCall(k, dim=2))
_ints = st.sampled_from([1, 2, np.int64(2)])


def _market(index: int) -> MultiAssetGBM:
    spots, vols, rate, rho = _MARKETS[index]
    return MultiAssetGBM(spots, vols, rate,
                         correlation=np.array([[1.0, rho], [rho, 1.0]]))


@st.composite
def _batches(draw):
    """1–20 requests on 1–3 model instances; a repeated market index is an
    equal-valued but distinct instance."""
    models = [_market(i) for i in draw(st.lists(
        st.integers(0, len(_MARKETS) - 1), min_size=1, max_size=3))]
    batch = []
    for _ in range(draw(st.integers(1, 20))):
        payoff = draw(st.sampled_from(_PAYOFFS))(
            draw(st.sampled_from([90.0, 100, 110.5])))
        engine = draw(st.sampled_from(
            ["mc"] if payoff.is_path_dependent
            else ["mc", "lattice", "pde", "lsm"]))
        steps = draw(st.sampled_from([4, np.int64(8)]) if engine in
                     ("lattice", "lsm") else st.sampled_from([None, 4]))
        workload = Workload("w", draw(st.sampled_from(models)), payoff,
                            draw(st.sampled_from([1, 1.0, np.float64(1.0)])))
        batch.append(PricingRequest(
            workload, engine=engine, steps=steps, p=draw(_ints),
            n_paths=draw(st.sampled_from([500, np.int64(500)])),
            seed=draw(_ints), grid=draw(st.sampled_from([8, np.int64(8)]))))
    return batch


#: Values that compare equal in groups but encode differently.
_EDGES = (0.0, -0.0, 0, False, 1, 1.0, True, np.float64(1.0),
          np.float64(-0.0), float("nan"), np.float32(0.5), np.int64(1))
_edges = st.sampled_from(_EDGES)
#: The integer edges, the seeds a request accepts (and its top one).
_seeds = st.sampled_from([0, 1, np.int64(1), 2 ** 64 - 1])
#: One array's values as a (d,) copy, a (1, d) view and a strided view.
_layouts = st.sampled_from([np.copy, lambda a: a.reshape(1, -1),
                            lambda a: np.repeat(a, 2)[::2]])


@st.composite
def _edge_batches(draw):
    """A :func:`_batches` batch whose markets and strikes are then
    overwritten, behind the frozen models' backs, with edge values."""
    batch = draw(_batches())
    for model in {id(r.workload.model): r.workload.model
                  for r in batch}.values():
        spots = np.array([100.0, draw(st.sampled_from([0.0, -0.0, np.nan]))])
        object.__setattr__(model, "spots", draw(_layouts)(spots))
        object.__setattr__(model, "vols", draw(_layouts)(model.vols))
        object.__setattr__(model, "rate", draw(_edges))
        object.__setattr__(model, "correlation", draw(st.sampled_from(
            [np.copy, np.asfortranarray]))(model.correlation))
    for r in batch:
        r.workload.payoff.strike = draw(_edges)
    return batch


@pytest.fixture
def memo():
    """The process-wide fragment memo, emptied around the test."""
    batching._FRAGMENTS.clear()
    yield batching._FRAGMENTS
    batching._FRAGMENTS.clear()


class TestRequestKeys:
    @settings(max_examples=60, deadline=None)
    @given(batch=_batches())
    def test_batch_keys_match_the_reference(self, batch):
        keys = request_keys(batch)
        assert keys == [_reference_key(_request_doc(r)) for r in batch]
        assert [request_key(r) for r in batch] == keys

    @settings(max_examples=80, deadline=None)
    @given(batch=_edge_batches(), spot=_edges)
    def test_memoised_keys_match_the_reference(self, batch, spot):
        """The memo outlives each example, so every fragment an earlier
        example left behind is a chance to serve the wrong text."""
        assert request_keys(batch) == [_reference_key(_request_doc(r))
                                       for r in batch]
        batch[0].workload.model.spots[..., 0] = spot   # same object, new value
        assert request_keys(batch) == [_reference_key(_request_doc(r))
                                       for r in batch]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(batch=_batches(), data=st.data())
    def test_keys_follow_every_change_between_calls(self, batch, data):
        """Shared and distinct model instances; int, ``np.int64`` and float
        settings and expiries, seeds among the integer edges; and between
        calls a market, payoff, expiry or seed changed in place or replaced. The
        per-call market lookup and the memoised settings tail never carry
        a stale fragment: every call keys as the reference."""
        batch = [dataclasses.replace(r, seed=data.draw(_seeds))
                 for r in batch]
        models = list({id(r.workload.model): r.workload.model
                       for r in batch}.values())
        for _ in range(4):
            assert request_keys(batch) == [_reference_key(_request_doc(r))
                                           for r in batch]
            i = data.draw(st.integers(0, len(batch) - 1))
            w = batch[i].workload
            change = data.draw(st.sampled_from(
                ["spot", "rate", "strike", "expiry", "seed"]))
            if change == "spot":
                data.draw(st.sampled_from(models)).spots[0] = data.draw(
                    st.sampled_from([0.0, -0.0, 100.0, 101.5]))
            elif change == "rate":
                object.__setattr__(w.model, "rate", data.draw(_edges))
            elif change == "strike":
                w.payoff.strike = data.draw(_edges)
            elif change == "expiry":
                object.__setattr__(w, "expiry", data.draw(st.sampled_from(
                    [1, 1.0, np.float64(1.0), np.int64(1), True, 0.5])))
            else:  # in place: a replaced request would re-check the
                # model, which an earlier edge rate may have made unpriceable
                object.__setattr__(batch[i], "seed", data.draw(_seeds))

    def test_equal_expiries_that_encode_differently_never_share_text(self):
        """``1 == 1.0``, but the canonical text writes ``1`` and ``1.0``:
        a contract frame shared by value would give both one key."""
        model = _market(0)
        batch = [PricingRequest(Workload("w", model, SpreadCall(5.0), expiry),
                                n_paths=500) for expiry in (1, 1.0)]
        keys = request_keys(batch)
        assert keys == [_reference_key(_request_doc(r)) for r in batch]
        assert keys[0] != keys[1]

    def test_equal_rates_and_strikes_that_encode_differently(self, memo):
        """One memo, one market and payoff per edge value: as many keys
        as there are distinct canonical texts."""
        batch = [PricingRequest(Workload("w", _market(0), SpreadCall(5.0), 1.0),
                                n_paths=500) for _ in _EDGES]
        for r, value in zip(batch, _EDGES):
            object.__setattr__(r.workload.model, "rate", value)
            r.workload.payoff.strike = value
        keys = request_keys(batch)
        docs = [_request_doc(r) for r in batch]
        assert keys == [_reference_key(doc) for doc in docs]
        assert len(set(keys)) == len({reference_canonical_json(doc)
                                      for doc in docs}) == 9

    def test_each_market_instance_is_described_once(self, memo, monkeypatch):
        """Equal-valued market instances are described once in total."""
        described = []
        real = batching.describe_model
        monkeypatch.setattr(batching, "describe_model",
                            lambda m: described.append(m) or real(m))
        scenario = stress_scenarios(2, 1, seed=3)[0]
        book = shock_book(strike_strip(16, dim=2), scenario)
        shared = [PricingRequest(w, n_paths=500, seed=1) for w in book]
        distinct = [PricingRequest(Workload(w.name, scenario.apply(
            strike_strip(1, dim=2)[0].model), w.payoff, w.expiry),
            n_paths=500, seed=1) for w in book]
        assert len({id(r.workload.model) for r in distinct}) == 16

        shared_keys = request_keys(shared)
        assert len(described) == 1
        described.clear()
        assert request_keys(distinct) == shared_keys
        assert described == []
        assert shared_keys == [_reference_key(_request_doc(r))
                               for r in shared]

    def test_fresh_requests_hit_like_replayed_ones(self, memo):
        """Deep-copied requests share no object with the originals, yet
        key identically without encoding a single new fragment: one
        market lookup per model instance, one payoff and one tail per
        request, every one a hit."""
        requests = _requests()
        keys = request_keys(requests)
        misses, hits = memo.misses, memo.hits
        markets = len({id(r.workload.model) for r in requests})
        assert markets == 4
        assert request_keys(copy.deepcopy(requests)) == keys
        assert memo.misses == misses
        assert memo.hits == hits + markets + 2 * len(requests)

    def test_memo_is_bounded(self, memo):
        """Past its cap the memo evicts; a market with an array over the
        element bound is encoded directly, never stored."""
        model = _market(0)
        batch = [PricingRequest(Workload("w", model, SpreadCall(k), 1.0),
                                n_paths=500)
                 for k in range(batching._MEMO_CAP + 10)]
        keys = request_keys(batch)
        assert len(memo) == batching._MEMO_CAP
        assert keys[-3:] == [_reference_key(_request_doc(r))
                             for r in batch[-3:]]
        big = Workload("w", MultiAssetGBM.equicorrelated(17, 100.0, 0.2,
                                                         0.05, 0.3),
                       BasketCall([1.0] * 17, 100.0), 1.0)
        memo.clear()
        request = PricingRequest(big, n_paths=500)
        assert request_key(request) == _reference_key(_request_doc(request))
        assert len(memo) == memo.misses == 2     # the payoff and the tail

    def test_threads_sharing_the_memo_lose_nothing(self, memo):
        """Four threads key a book of more payoffs than the memo holds,
        each in its own order, with a thread switch every microsecond:
        every key is right, the memo stays within its cap, and no hit or
        miss count is lost (per call: one market lookup for the book's one
        model, one payoff and one tail per request)."""
        model = _market(1)
        book = [PricingRequest(Workload("w", model, SpreadCall(0.5 * k), 1.0),
                               n_paths=500)
                for k in range(batching._MEMO_CAP + 200)]
        want = {id(r): _reference_key(_request_doc(r)) for r in book}
        rounds, wrong = 2, []

        def work(seed):
            order = random.Random(seed).sample(book, len(book))
            for _ in range(rounds):
                keys = request_keys(order)
                wrong.extend(r for r, k in zip(order, keys)
                             if k != want[id(r)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(memo) <= batching._MEMO_CAP
        assert memo.hits + memo.misses == 4 * rounds * (2 * len(book) + 1)


# -- the digests built on it -------------------------------------------------

def _requests():
    out = []
    for book in (strike_strip(3, dim=2), random_portfolio(3, dim=4)):
        for engine in ("mc", "lattice", "pde"):
            # A PDE request is admitted on a 2-asset model only, and a
            # lattice request only where its BEG branch probabilities are
            # feasible (portfolio-1's correlation is not, at 16 steps).
            out.extend(PricingRequest(w, engine=engine, n_paths=2_000,
                                      steps=16, seed=7) for w in book
                       if (engine != "pde" or w.dim == 2) and
                       (engine, w.name) != ("lattice", "portfolio-1"))
    return out


class TestDigestsUnchanged:
    def test_request_and_batch_keys_match_the_reference(self):
        for r in _requests():
            contract = describe_workload(r.workload)
            doc = {"contract": contract, "engine": r.engine,
                   "settings": r.settings()}
            assert _str_keyed(doc)      # the hot documents take the C path
            assert request_key(r) == _reference_key(doc)
            assert batch_key(r) == _reference_key({
                "model": contract["model"], "expiry": contract["expiry"],
                "engine": r.engine, "settings": r.settings(),
                "path_dependent": bool(r.workload.payoff.is_path_dependent)})

    def test_scenario_keys_match_the_reference(self):
        for s in stress_scenarios(3, 5, seed=4):
            assert s.key == _reference_key(s.describe())

    def test_golden_corpus_hashes(self):
        golden = json.loads(GOLDEN.read_text())["cases"]
        corpus = default_corpus()
        assert {c.name for c in corpus} == set(golden)
        for case in corpus:
            assert config_hash(case) == golden[case.name]["hash"]
            assert config_hash(case) == _reference_key(describe_case(case))

    def test_ledger_config_digests(self, tmp_path):
        from repro.engine import ParallelMCPricer
        from repro.obs import RunLedger, read_ledger
        from repro.obs.ledger import config_digest, set_active_ledger
        from repro.risk import Scenario, revalue_book, run_risk_sweep

        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        book = strike_strip(2, dim=2)
        revalue_book(book, [Scenario(label="s", spot_factors=(0.95,))],
                     n_paths=300, seed=1, levels=(0.9,), ledger=ledger)
        set_active_ledger(ledger)
        try:
            run_risk_sweep(book, stress_scenarios(2, 2, seed=1), n_paths=300,
                           seed=1)
        finally:
            set_active_ledger(None)
        assert [(r.kind, r.config) for r in read_ledger(path)] == [
            ("serve", "ea58e134eb1d"), ("serve", "ea58e134eb1d"),
            ("risk", "d34b860d8159"), ("gateway", "f46fe0147f1c"),
            ("risk", "868afd19e6c4")]
        assert config_digest(ParallelMCPricer(4800, seed=13)) == "4e647ca66745"
        assert config_digest({"b": (1, 2.5, None), "a": True, 3: "x",
                              "skip": object()}) == "58bc5dc7bc64"


#: workload -> (keys in the digest, sha256[:16] of them) for seed 5 at
#: the benchmark's smoke sizes.
E2E_REQUEST_DIGESTS = {
    "quote_cold": (20, "5167b3f5d98e36b4"),
    "quote_hot": (64, "298ba7eb384a3216"),
    "book_batch": (27, "4165e44e08df2574"),
    "risk_sweep": (25, "26b514aff3749408"),
    "scaling_mc": (1, "fc3ce414887b2ef6"),
}


@pytest.mark.parametrize("name", sorted(E2E_REQUEST_DIGESTS))
def test_e2e_workload_request_digests(name):
    workloads = pytest.importorskip("benchmarks.e2e.workloads")
    w = workloads.WORKLOAD_CLASSES[name](5, workloads.SMOKE_SIZES[name])
    with ExitStack() as stack:
        w.open(stack)
        keys = w.request_digest()
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]
    assert (len(keys), digest) == E2E_REQUEST_DIGESTS[name]

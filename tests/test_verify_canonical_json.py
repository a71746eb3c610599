"""``canonical_json`` went to the C encoder; its text may not move a byte.

Every cache key, shard route, scenario key, decision-relevant batch key
and golden config hash is a SHA-256 of :func:`canonical_json`'s output.
The function used to pre-walk each document in Python (``_jsonable``)
before ``json.dumps``; it now hands ``str``-keyed documents straight to
the C encoder with a numpy ``default=`` hook. The old implementation is
kept here, verbatim, as the reference oracle: the hypothesis property
holds the two equal on everything the old one accepted, and the explicit
tests pin the digests built on top — the golden verify corpus, ledger
config digests, and the request digests of the five end-to-end
benchmark workloads — to literals captured at b4bacfa.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.batch.strip import batch_key
from repro.risk.scenarios import stress_scenarios
from repro.serve.batching import PricingRequest, request_key
from repro.verify.contracts import (_str_keyed, canonical_json, config_hash,
                                    default_corpus, describe_case,
                                    describe_workload)
from repro.workloads.generators import random_portfolio, strike_strip

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


# -- the digests built on it -------------------------------------------------

def _requests():
    out = []
    for book in (strike_strip(3, dim=2), random_portfolio(3, dim=4)):
        for engine in ("mc", "lattice", "pde"):
            # A PDE request is admitted on a 2-asset model only.
            out.extend(PricingRequest(w, engine=engine, n_paths=2_000,
                                      steps=16, seed=7) for w in book
                       if engine != "pde" or w.dim == 2)
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
        from repro.obs.ledger import config_digest
        from repro.risk import Scenario, revalue_book, run_risk_sweep

        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        book = strike_strip(2, dim=2)
        revalue_book(book, [Scenario(label="s", spot_factors=(0.95,))],
                     n_paths=300, seed=1, levels=(0.9,), ledger=ledger)
        run_risk_sweep(book, stress_scenarios(2, 2, seed=1), n_paths=300,
                       seed=1, ledger=ledger)
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

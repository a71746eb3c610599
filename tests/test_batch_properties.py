"""Property tests for the columnar strip layer (Hypothesis).

The batch planner sits between the cache and the execution layer, so its
invariants are structural, not numerical:

* **round-trip** — SoA in, AoS out: a strip rebuilt from any valid request
  group returns exactly the requests it was built from, in order;
* **permutation stability** — grouping is a function of the *set* of
  requests: shuffling the submission order never changes which strips
  form or which members they contain (only the deterministic ordering
  rules change row order);
* **cache-key preservation** — batching must never touch request
  identity: every strip member keeps the exact
  :func:`~repro.serve.batching.request_key` it would have as a single,
  and the display name participates in neither key.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import ContractStrip, batch_key, plan_batches
from repro.errors import ValidationError
from repro.market.gbm import MultiAssetGBM
from repro.payoffs import Call
from repro.serve import PricingRequest
from repro.serve.batching import request_key, request_keys
from repro.workloads import Workload

MODEL = MultiAssetGBM.single(100.0, 0.2, 0.05)
EXPIRY = 1.0

strikes_st = st.lists(
    st.floats(min_value=50.0, max_value=150.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=8, unique=True)
seed_st = st.integers(min_value=0, max_value=2 ** 16)


def _request(strike: float, *, seed: int = 0, n_paths: int = 2_000,
             name: str = "") -> PricingRequest:
    w = Workload(name or f"k{strike:g}", MODEL, Call(strike), EXPIRY)
    return PricingRequest(w, engine="mc", n_paths=n_paths, seed=seed, p=2,
                          name=w.name)


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(strikes=strikes_st, seed=seed_st)
    def test_strip_round_trips_requests_in_order(self, strikes, seed):
        reqs = [_request(k, seed=seed) for k in strikes]
        strip = ContractStrip.from_requests(reqs)
        assert strip.to_requests() == reqs
        assert len(strip) == len(reqs)
        assert list(strip.payoffs) == [r.workload.payoff for r in reqs]


class TestPermutationStability:
    @settings(max_examples=30, deadline=None)
    @given(strikes=strikes_st, seeds=st.lists(seed_st, min_size=1,
                                              max_size=3, unique=True),
           shuffle_seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_grouping_invariant_under_permutation(self, strikes, seeds,
                                                  shuffle_seed):
        reqs = [_request(k, seed=s) for s in seeds for k in strikes]
        shuffled = list(reqs)
        random.Random(shuffle_seed).shuffle(shuffled)

        def group_map(plan):
            groups = {s.key: frozenset(request_keys(s.requests))
                      for s in plan.strips}
            groups.update({request_key(r): frozenset([request_key(r)])
                           for r in plan.singles})
            return groups

        assert group_map(plan_batches(reqs)) == group_map(
            plan_batches(shuffled))

    @settings(max_examples=30, deadline=None)
    @given(strikes=strikes_st, seed=seed_st)
    def test_batch_key_constant_across_the_strip(self, strikes, seed):
        reqs = [_request(k, seed=seed) for k in strikes]
        assert len({batch_key(r) for r in reqs}) == 1
        # ...and sensitive to any engine-relevant setting:
        bumped = _request(strikes[0], seed=seed, n_paths=4_000)
        assert batch_key(bumped) != batch_key(reqs[0])


class TestCacheKeyPreservation:
    @settings(max_examples=30, deadline=None)
    @given(strikes=strikes_st, seed=seed_st)
    def test_strip_members_keep_single_request_keys(self, strikes, seed):
        reqs = [_request(k, seed=seed) for k in strikes]
        plan = plan_batches(reqs, min_strip=1)
        assert len(plan.strips) == 1
        assert request_keys(plan.strips[0].requests) == \
            [request_key(r) for r in reqs]

    @settings(max_examples=30, deadline=None)
    @given(strike=st.floats(min_value=50.0, max_value=150.0,
                            allow_nan=False, allow_infinity=False),
           seed=seed_st)
    def test_name_is_in_neither_key(self, strike, seed):
        a = _request(strike, seed=seed, name="desk-a")
        b = _request(strike, seed=seed, name="desk-b")
        assert request_key(a) == request_key(b)
        assert batch_key(a) == batch_key(b)

    @settings(max_examples=20, deadline=None)
    @given(strikes=st.lists(st.floats(min_value=50.0, max_value=150.0,
                                      allow_nan=False,
                                      allow_infinity=False),
                            min_size=2, max_size=6, unique=True),
           seed=seed_st)
    def test_mixed_key_groups_refuse_to_fuse(self, strikes, seed):
        reqs = ([_request(k, seed=seed) for k in strikes[:1]]
                + [_request(k, seed=seed + 1) for k in strikes[1:]])
        with pytest.raises(ValidationError):
            ContractStrip.from_requests(reqs)

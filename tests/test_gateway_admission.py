"""Unit tests for admission control and the GatewayCore state machine.

Everything here runs the core directly with injected instants — no
executor, no clock — pinning the decision semantics the overload tier
and both front-ends rely on: lane drain order, queue bounds, deadline
sheds at the door, expiry sheds at dispatch, EWMA service estimation,
and the canonical decision log.
"""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.gateway.admission import (LANES, AdmissionController, Decision,
                                     GatewayRequest, decision_digest,
                                     lane_priority)
from repro.gateway.core import GatewayCore
from repro.obs.metrics import MetricsRegistry
from repro.serve.batching import PricingRequest
from repro.workloads.generators import strike_strip

BOOK = strike_strip(8)


def _greq(i: int = 0, *, lane: str = "standard", deadline_s: float = 10.0,
          seed: int = 0) -> GatewayRequest:
    contract = BOOK[i % len(BOOK)]
    return GatewayRequest(
        request=PricingRequest(contract, engine="mc", n_paths=1_000,
                               seed=seed, name=contract.name),
        lane=lane, deadline_s=deadline_s)


# -- lanes and validation ----------------------------------------------------

def test_lane_priorities_are_total_and_ordered():
    ranks = [lane_priority(lane) for lane in LANES]
    assert ranks == sorted(ranks) == list(range(len(LANES)))
    with pytest.raises(ValidationError):
        lane_priority("express")


def test_gateway_request_validates():
    with pytest.raises(ValidationError):
        _greq(lane="nope")
    with pytest.raises(ValidationError):
        _greq(deadline_s=0.0)


def test_admission_controller_reasons():
    ctl = AdmissionController(max_queue=2)
    admit = ctl.decide(lane_depth=0, work_ahead_s=0.0, service_s=0.1,
                       now=0.0, deadline_at=1.0)
    assert admit == ""
    assert ctl.decide(lane_depth=2, work_ahead_s=0.0, service_s=0.1,
                      now=0.0, deadline_at=1.0) == "queue-full"
    assert ctl.decide(lane_depth=0, work_ahead_s=5.0, service_s=0.1,
                      now=0.0, deadline_at=1.0) == "deadline"
    # Finishing exactly at the deadline is in time; a hair later is not.
    assert ctl.decide(lane_depth=0, work_ahead_s=0.5, service_s=0.5,
                      now=0.0, deadline_at=1.0) == ""
    assert ctl.decide(lane_depth=0, work_ahead_s=0.5, service_s=0.5,
                      now=0.0, deadline_at=0.9375) == "deadline"


# -- core: admission at the door --------------------------------------------

def test_offer_admits_and_logs():
    core = GatewayCore(2, service_hint_s=0.1)
    pending, decision = core.offer(_greq(0), now=1.0)
    assert pending is not None
    assert decision.action == "admit"
    assert pending.deadline_at == pytest.approx(1.0 + 10.0)
    assert pending.shard == decision.shard
    assert core.admitted == 1 and core.shed == {}


def test_queue_full_sheds_at_the_bound():
    core = GatewayCore(1, max_queue=3, service_hint_s=1e-6)
    for i in range(3):
        pending, _ = core.offer(_greq(seed=i), now=0.0)
        assert pending is not None
    pending, decision = core.offer(_greq(seed=99), now=0.0)
    assert pending is None
    assert decision.reason == "queue-full"
    assert core.queue_depth(0) == 3
    assert core.shed == {"queue-full": 1}


def test_queue_bound_is_per_lane():
    core = GatewayCore(1, max_queue=2, service_hint_s=1e-6)
    for i in range(2):
        assert core.offer(_greq(seed=i, lane="bulk"), now=0.0)[0]
    # bulk is full; interactive still has room on the same shard.
    assert core.offer(_greq(seed=9, lane="bulk"), now=0.0)[0] is None
    assert core.offer(_greq(seed=9, lane="interactive"), now=0.0)[0]


def test_hopeless_deadline_sheds_at_the_door():
    core = GatewayCore(1, service_hint_s=5.0)
    pending, decision = core.offer(_greq(deadline_s=1.0), now=0.0)
    assert pending is None
    assert decision.reason == "deadline"


def test_work_ahead_counts_own_and_higher_lanes_only():
    core = GatewayCore(1, service_hint_s=1.0)
    # Two queued bulk requests are invisible to an interactive arrival
    # (it overtakes them) but push a bulk arrival past a 2.5s budget.
    assert core.offer(_greq(seed=1, lane="bulk", deadline_s=50.0), 0.0)[0]
    assert core.offer(_greq(seed=2, lane="bulk", deadline_s=50.0), 0.0)[0]
    ok, _ = core.offer(_greq(seed=3, lane="interactive", deadline_s=2.5), 0.0)
    assert ok is not None
    shed, decision = core.offer(_greq(seed=4, lane="bulk", deadline_s=2.5),
                                0.0)
    assert shed is None and decision.reason == "deadline"


# -- core: dispatch ----------------------------------------------------------

def test_dispatch_drains_lanes_in_priority_order():
    core = GatewayCore(1, service_hint_s=1e-6)
    b, _ = core.offer(_greq(seed=1, lane="bulk"), 0.0)
    s, _ = core.offer(_greq(seed=2, lane="standard"), 0.0)
    i, _ = core.offer(_greq(seed=3, lane="interactive"), 0.0)
    order = [core.next_request(0, 0.0).seq for _ in range(3)]
    assert order == [i.seq, s.seq, b.seq]
    assert core.next_request(0, 0.0) is None


def test_expired_entries_shed_at_dispatch():
    core = GatewayCore(1, service_hint_s=0.5)
    stale, _ = core.offer(_greq(seed=1, deadline_s=1.0), now=0.0)
    fresh, _ = core.offer(_greq(seed=2, deadline_s=50.0), now=0.0)
    # Time jumps past the first deadline: dispatch sheds it, serves the
    # second, and the log records the expiry.
    popped = core.next_request(0, now=2.0)
    assert popped.seq == fresh.seq
    assert core.shed == {"expired": 1}
    reasons = [d for d in core.decisions if d.seq == stale.seq]
    assert reasons[-1].action == "shed" and reasons[-1].reason == "expired"


def test_complete_updates_ewma_and_flags_late():
    core = GatewayCore(1, service_hint_s=1.0)
    p1, _ = core.offer(_greq(seed=1, deadline_s=100.0), 0.0)
    core.start(0, p1, 0.0, 2.0)
    done = core.complete(0, core.next_request(0, 0.0) or p1, 2.0, 2.0)
    # First observation replaces the hint outright.
    assert core.service_estimate(0) == pytest.approx(2.0)
    assert done.action == "done" and done.reason == ""
    # Feasible at admission (estimate says 4.0 <= deadline 5.0) but the
    # actual service ran long — completes past the deadline.
    p2, _ = core.offer(_greq(seed=2, deadline_s=3.0), 2.0)
    assert p2 is not None
    core.complete(0, p2, 6.0, 4.0)
    # Then EWMA with its fixed weight: 2.0 + 0.2 * (4.0 - 2.0).
    assert core.service_estimate(0) == pytest.approx(2.4)
    late = core.decisions[-1]
    assert late.action == "done" and late.reason == "late"
    assert late.latency_s == pytest.approx(4.0)


def test_metrics_mirror_the_counters():
    metrics = MetricsRegistry()
    core = GatewayCore(1, max_queue=1, service_hint_s=1e-6, metrics=metrics)
    p, _ = core.offer(_greq(seed=1), 0.0)
    core.offer(_greq(seed=2), 0.0)   # queue-full shed
    core.complete(0, p, 0.1, 0.1)
    assert metrics.counter("gateway.admitted").value == 1
    assert metrics.counter("gateway.shed", reason="queue-full").value == 1
    assert metrics.counter("gateway.completed").value == 1
    assert metrics.histogram("gateway.latency_s", lane="standard").count == 1


#: sha256 of the registry's canonical JSON after the seeded 2x-overload
#: run below, recorded while the core still looked each instrument up per
#: quote. No request in this run completes late, so ``gateway.late`` is
#: absent there and zero where the core binds it up front; it is set
#: aside before hashing, and every other byte must match.
OVERLOAD_SNAPSHOT = (
    "d3b577b64fcfdbbd69c8ceed5b6ecde576286224e0d7f0b1e7f2b6066c08e853")


def _overload_registry(spy=None):
    from repro.gateway import (CostModel, LoadgenConfig, capacity,
                               open_loop_schedule, run_schedule)

    metrics = MetricsRegistry()
    if spy is not None:
        lookup = metrics._get

        def counted(cls, name, labels):
            spy.append(name)
            return lookup(cls, name, labels)

        metrics._get = counted
    cost = CostModel()
    base = LoadgenConfig(seed=23, duration_s=4.0, n_paths=2_000, unique=True)
    cfg = LoadgenConfig(seed=23, rate=2.0 * capacity(base, cost, 4),
                        duration_s=4.0, n_paths=2_000, unique=True)
    run_schedule(open_loop_schedule(cfg), n_shards=4, cost=cost,
                 duration_s=4.0, max_queue=32, metrics=metrics)
    return metrics


def test_bound_instruments_replay_the_overload_snapshot():
    import hashlib
    import json

    metrics = _overload_registry()
    snap = metrics.snapshot()
    assert snap["counters"].pop("gateway.late", 0.0) == 0.0
    text = json.dumps(snap, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == OVERLOAD_SNAPSHOT
    assert _overload_registry().to_json() == metrics.to_json()


def test_the_core_looks_its_instruments_up_only_when_built():
    """Thousands of offers, sheds and completions; the only ``gateway.*``
    registry lookups are the core's construction-time bindings."""
    lookups: list[str] = []
    metrics = _overload_registry(spy=lookups)
    gateway = [name for name in lookups if name.startswith("gateway.")]
    bound = 4 + 4 + len(LANES) + 3  # counters+wait, shards, lanes, reasons
    assert len(gateway) == bound
    assert metrics.counter("gateway.admitted").value > 1_000


# -- the decision log --------------------------------------------------------

def test_decision_digest_is_order_and_content_sensitive():
    a = Decision(seq=0, t=0.0, shard=0, lane="standard", action="admit")
    b = Decision(seq=1, t=0.5, shard=1, lane="bulk", action="shed",
                 reason="queue-full")
    assert decision_digest([a, b]) == decision_digest([a, b])
    assert decision_digest([a, b]) != decision_digest([b, a])
    assert decision_digest([a]) != decision_digest([
        Decision(seq=0, t=0.0, shard=0, lane="standard", action="admit",
                 reason="x")])


def test_decision_is_slotted_and_pickles():
    """The decision log holds 2**15 of these: an entry carries no
    per-instance ``__dict__``, and still round-trips through pickle with
    its digest."""
    import pickle

    d = Decision(seq=7, t=0.25, shard=1, lane="bulk", action="done",
                 reason="late", latency_s=0.125)
    assert not hasattr(d, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(d, "extra", 1)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(d, protocol))
        assert clone == d and clone.canonical() == d.canonical()
    assert d.canonical() == "7|0.25|1|bulk|done|late|0.125"


def test_validation_of_core_parameters():
    with pytest.raises(ValidationError):
        GatewayCore(0)
    with pytest.raises(ValidationError):
        GatewayCore(1, service_hint_s=0.0)
    with pytest.raises(ValidationError):
        AdmissionController(max_queue=0)

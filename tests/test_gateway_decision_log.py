"""The gateway core's decision log keeps a bounded tail.

``GatewayCore.decisions`` answers ``len``/``[i]``/``[-k]``/``[a:b]`` and
iteration by absolute position in the decision stream, the way a plain
list would while every entry is retained, and raises ``IndexError`` for
an entry it has dropped. A core driven for 4x longer holds no more
memory, which is what keeps a long-running gateway's RSS flat.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gateway.core as core_mod
from repro.gateway import Decision, GatewayCore, GatewayRequest
from repro.serve.batching import PricingRequest
from repro.workloads.generators import strike_strip


def _decision(seq: int) -> Decision:
    return Decision(seq=seq, t=float(seq), shard=seq % 3, lane="standard",
                    action="admit")


OPS = st.sampled_from(["append", "append", "append", "len", "index",
                       "since", "range", "iter"])


@settings(max_examples=200)
@given(st.integers(1, 8), st.data())
def test_log_matches_a_list_within_retention(retain, data):
    with mock.patch.object(core_mod, "_RETAIN", retain):
        log = core_mod._DecisionLog()
    full: list[Decision] = []
    for op in data.draw(st.lists(OPS, max_size=60)):
        n = len(full)
        dropped = max(n - retain, 0)
        if op == "append":
            full.append(_decision(n))
            log.append(full[-1])
        elif op == "len":
            assert len(log) == n
        elif op == "iter":
            assert list(log) == full[dropped:]
        elif op == "index":
            i = data.draw(st.integers(-n - 1, n + 1))
            if dropped <= (i + n if i < 0 else i) < n:
                assert log[i] is full[i]
            else:
                with pytest.raises(IndexError):
                    log[i]
        else:
            a = data.draw(st.integers(-n - 1, n + 1))
            b = (data.draw(st.integers(-n - 1, n + 1)) if op == "range"
                 else None)
            start, stop, _ = slice(a, b).indices(n)
            if start >= stop or start >= dropped:
                assert log[a:b] == full[a:b]
            else:
                with pytest.raises(IndexError):
                    log[a:b]


def test_slices_take_no_step():
    log = core_mod._DecisionLog()
    log.append(_decision(0))
    with pytest.raises(ValueError):
        log[::2]


@pytest.mark.gateway
def test_core_memory_is_flat_over_a_4x_longer_window(monkeypatch):
    book = strike_strip(4)
    greqs = [GatewayRequest(PricingRequest(c, engine="mc", n_paths=100,
                                           seed=i), deadline_s=1e9)
             for i, c in enumerate(book)]
    # Hashing is not what is measured; it would be ~3/4 of the run time.
    keys = {id(g.request): core_mod.request_key(g.request) for g in greqs}
    monkeypatch.setattr(core_mod, "request_key", lambda r: keys[id(r)])
    core = GatewayCore(2, service_hint_s=1e-6)

    def drive(n_quotes):
        for i in range(n_quotes):
            pending, _ = core.offer(greqs[i % 4], 0.0)
            pending = core.next_request(pending.shard, 0.0)
            core.start(pending.shard, pending, 0.0, 0.0)
            core.complete(pending.shard, pending, 0.0, 1e-6)

    tracemalloc.start()
    try:
        drive(50_000)
        after_50k = tracemalloc.get_traced_memory()[0]
        drive(150_000)
        after_200k = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(core.decisions) == 400_000
    assert after_200k <= after_50k + 64 * 1024, (after_50k, after_200k)
    # A harness round's worth of recent decisions is still readable; the
    # first decision is not, and says so.
    assert [d.action for d in core.decisions[-10_000:]] == [
        "admit", "done"] * 5_000
    with pytest.raises(IndexError):
        core.decisions[0]

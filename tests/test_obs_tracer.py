"""Span tracer: recording semantics, the disabled fast path, nesting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.obs import NULL_TRACER, Tracer, track_sort_key
from repro.parallel import SimulatedCluster


class TickClock:
    """Deterministic clock: every read advances one tick."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestRecording:
    def test_span_context_manager_records_interval(self):
        tr = Tracer()
        tr.clock = TickClock()
        with tr.span("work", size=7):
            pass
        (s,) = tr.spans
        assert s.name == "work"
        assert s.track == "main"
        assert s.args == {"size": 7}
        assert (s.t0, s.t1) == (1.0, 2.0)
        assert s.duration == 1.0

    def test_add_span_explicit_timestamps(self):
        tr = Tracer()
        tr.add_span("phase", 0.5, 2.0, level=3)
        (s,) = tr.spans
        assert s.track == "main"
        assert (s.t0, s.t1) == (0.5, 2.0)
        assert s.args == {"level": 3}

    def test_add_span_rejects_negative_duration(self):
        tr = Tracer()
        with pytest.raises(ValidationError):
            tr.add_span("bad", 2.0, 1.0)

    def test_instant_uses_clock_or_explicit_t(self):
        tr = Tracer()
        tr.clock = TickClock()
        tr.instant("fault", rank=1, kind="crash")
        tr.instant("retry", rank=1, t=10.0)
        assert [e.t for e in tr.events] == [1.0, 10.0]
        assert tr.events[0].args == {"kind": "crash"}
        assert all(e.track == "rank1" for e in tr.events)

    def test_len_counts_spans_and_events(self):
        tr = Tracer()
        tr.add_span("a", 0.0, 1.0)
        tr.instant("b", t=0.5)
        assert len(tr) == 2
        tr.clear()
        assert len(tr) == 0
        tr.add_span("c", 0.0, 1.0)  # usable after clear
        assert len(tr) == 1


class TestDisabled:
    def test_disabled_tracer_is_falsy_and_records_nothing(self):
        tr = Tracer(enabled=False)
        assert not tr
        with tr.span("work"):
            pass
        tr.add_span("phase", 0.0, 1.0)
        tr.instant("fault", rank=0)
        assert len(tr) == 0
        assert tr.spans == [] and tr.events == []

    def test_enabled_tracer_is_truthy(self):
        assert Tracer()
        assert not NULL_TRACER

    def test_disabled_span_is_shared_noop(self):
        tr = Tracer(enabled=False)
        assert tr.span("a") is tr.span("b")


class TestTracks:
    def test_rank_and_explicit_tracks(self):
        tr = Tracer()
        tr.add_span("a", 0, 1, track="worker2")
        tr.add_span("b", 0, 1, rank=10)
        tr.add_span("c", 0, 1, rank=2)
        tr.add_span("d", 0, 1)
        assert tr.tracks() == ["main", "rank2", "rank10", "worker2"]

    def test_sort_key_orders_numeric_suffixes(self):
        tracks = ["worker10", "rank2", "zeta", "main", "worker2", "rank10"]
        assert sorted(tracks, key=track_sort_key) == [
            "main", "rank2", "rank10", "worker2", "worker10", "zeta",
        ]


def _check_well_nested(spans):
    """Per track, any two spans must be disjoint or properly nested."""
    by_track = {}
    for s in spans:
        by_track.setdefault(s.track, []).append(s)
    for track_spans in by_track.values():
        stack = []
        for s in sorted(track_spans, key=lambda s: (s.t0, -s.t1)):
            while stack and stack[-1].t1 <= s.t0:
                stack.pop()
            if stack:
                assert s.t1 <= stack[-1].t1, (
                    f"span {s.name} [{s.t0},{s.t1}] overlaps "
                    f"{stack[-1].name} [{stack[-1].t0},{stack[-1].t1}]"
                )
            stack.append(s)


# A span tree as nested lists: [] is a leaf, [t1, t2, ...] nests children.
_TREES = st.recursive(st.just([]),
                      lambda inner: st.lists(inner, max_size=3),
                      max_leaves=12)


class TestNestingProperty:
    @given(tree=_TREES)
    @settings(max_examples=60, deadline=None)
    def test_context_manager_spans_are_well_nested_and_monotonic(self, tree):
        tr = Tracer()
        tr.clock = TickClock()

        def walk(node):
            with tr.span("node", fanout=len(node)):
                for child in node:
                    walk(child)

        walk(tree)
        assert all(s.t1 >= s.t0 for s in tr.spans)
        _check_well_nested(tr.spans)
        # Every node of the tree produced exactly one span.
        def count(node):
            return 1 + sum(count(c) for c in node)
        assert len(tr.spans) == count(tree)


class TestClusterIntegration:
    def test_cluster_emits_per_rank_spans_on_simulated_timeline(self):
        tr = Tracer()
        c = SimulatedCluster(3, tracer=tr)
        c.compute(0, 1000)
        c.compute(1, 500)
        c.reduce(24)
        assert set(tr.tracks()) <= {"rank0", "rank1", "rank2"}
        kinds = {s.name for s in tr.spans}
        assert "compute" in kinds and "comm" in kinds
        # Simulated timestamps, not wall clock: bounded by the makespan.
        assert all(0.0 <= s.t0 <= s.t1 <= c.elapsed() for s in tr.spans)
        _check_well_nested(tr.spans)

    def test_cluster_without_tracer_records_nothing(self):
        c = SimulatedCluster(2)
        c.compute(0, 100)
        assert c.tracer is None

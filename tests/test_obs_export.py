"""Trace exporters + the end-to-end observability acceptance checks."""

import json

import pytest

from repro.errors import ValidationError
from repro.obs import (
    Tracer,
    chrome_trace,
    chrome_trace_json,
    metrics_from_report,
    summary_table,
    write_chrome_trace,
)
from repro.engine import ParallelMCPricer
from repro.parallel import FaultPlan, make_backend
from repro.workloads import basket_workload


@pytest.fixture
def traced():
    tr = Tracer()
    tr.add_span("compute", 0.0, 1.5, rank=0, units=100)
    tr.add_span("comm", 1.5, 2.0, rank=0)
    tr.add_span("compute", 0.0, 2.0, rank=1)
    tr.add_span("mc.paths", 0.0, 2.0)
    tr.instant("retry", rank=1, t=1.0, attempt=1)
    return tr


class TestChromeTrace:
    def test_roundtrips_json_loads(self, traced):
        doc = json.loads(chrome_trace_json(traced))
        assert doc["displayTimeUnit"] == "ms"
        assert isinstance(doc["traceEvents"], list)

    def test_complete_events_have_perfetto_keys(self, traced):
        doc = chrome_trace(traced)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 4
        for e in xs:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(e)
        # Microsecond units on the trace-event side.
        first = next(e for e in xs if e["name"] == "compute" and e["ts"] == 0)
        assert first["dur"] == pytest.approx(1.5e6)

    def test_one_labeled_track_per_rank(self, traced):
        doc = chrome_trace(traced)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta
                 if e["name"] == "thread_name"}
        assert names == {"main", "rank0", "rank1"}
        assert any(e["name"] == "process_name"
                   and e["args"]["name"] == "repro" for e in meta)
        # tids are distinct and consistent between metadata and events.
        tids = {e["args"]["name"]: e["tid"] for e in meta
                if e["name"] == "thread_name"}
        assert len(set(tids.values())) == 3
        assert tids["main"] == 0  # display order puts main first

    def test_instant_events(self, traced):
        doc = chrome_trace(traced)
        (inst,) = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert inst["name"] == "retry"
        assert inst["s"] == "t"
        assert inst["ts"] == pytest.approx(1.0e6)
        assert inst["args"] == {"attempt": 1}

    def test_disabled_tracer_exports_no_span_events(self):
        tr = Tracer(enabled=False)
        tr.add_span("x", 0, 1)
        doc = chrome_trace(tr)
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]

    def test_write_creates_file(self, traced, tmp_path):
        out = write_chrome_trace(traced, tmp_path / "deep" / "t.trace.json")
        assert json.loads(out.read_text())["traceEvents"]

    def test_type_checked(self):
        with pytest.raises(ValidationError):
            chrome_trace("not a tracer")


class TestSummaryTable:
    def test_aggregates_per_name(self, traced):
        text = summary_table(traced).render()
        assert "trace summary" in text
        assert "compute" in text and "mc.paths" in text
        # 4 spans, 1 instant, 3 tracks.
        assert "4 span(s)" in text and "1 instant event(s)" in text


def _sq(x):
    return x * x


class TestWorkerSpans:
    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_backends_emit_per_worker_task_spans(self, kind):
        tr = Tracer()
        with make_backend(kind, 2, tracer=tr) as be:
            assert be.map(_sq, list(range(6))) == [x * x for x in range(6)]
        tracks = tr.tracks()
        assert tracks[0] == "main"
        assert all(t.startswith("worker") for t in tracks[1:])
        tasks = [s for s in tr.spans if s.name == "task"]
        assert len(tasks) == 6
        assert {s.args["rank_task"] for s in tasks} == set(range(6))
        (outer,) = [s for s in tr.spans if s.name.endswith(".map")]
        assert outer.args["n_tasks"] == 6


class TestAcceptance:
    """ISSUE acceptance: the chaos MC run's trace and metrics line up."""

    def test_mc_chaos_trace_and_metrics(self, tmp_path):
        w = basket_workload(2)
        tr = Tracer()
        pricer = ParallelMCPricer(8000, seed=1, record=True,
                                  faults=FaultPlan.single_crash(2),
                                  policy="retry", tracer=tr)
        res = pricer.price(w.model, w.payoff, w.expiry, 8)

        # One track per rank plus the phase track.
        assert tr.tracks()[:1] == ["main"]
        assert set(tr.tracks()) >= {f"rank{r}" for r in range(8)}
        names = {s.name for s in tr.spans}
        assert {"mc.paths", "mc.reduce", "compute", "comm"} <= names
        # Fault-retry instants visible, placed on the faulted rank.
        kinds = {(e.name, e.track) for e in tr.events}
        assert ("fault", "rank2") in kinds and ("retry", "rank2") in kinds

        # The trace file is Perfetto-loadable JSON.
        doc = json.loads(write_chrome_trace(
            tr, tmp_path / "chaos.trace.json").read_text())
        assert any(e["ph"] == "i" for e in doc["traceEvents"])

        # Metrics snapshot mirrors the cluster report exactly.
        rep = res.meta["cluster"].report()
        snap = metrics_from_report(rep).snapshot()
        assert snap["counters"]["sim.messages"] == rep["messages"] == res.messages
        assert (snap["counters"]["sim.bytes_moved"] == rep["bytes_moved"]
                == res.bytes_moved)

    def test_process_backend_worker_spans_on_mc(self):
        w = basket_workload(2)
        wall = Tracer()
        with make_backend("process", 2, tracer=wall) as be:
            pricer = ParallelMCPricer(4000, seed=1, backend=be)
            pricer.price(w.model, w.payoff, w.expiry, 4)
        tasks = [s for s in wall.spans if s.name == "task"]
        assert len(tasks) == 4
        assert all(s.track.startswith("worker") for s in tasks)

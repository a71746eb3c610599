"""Metrics registry: series semantics, canonical snapshots, bridges."""

import json
import statistics

import pytest

from repro.errors import ValidationError
from repro.obs import MetricsRegistry, metrics_from_report, metrics_from_run
from repro.parallel import SimulatedCluster
from repro.engine import ParallelMCPricer
from repro.parallel.faults import FaultPlan
from repro.workloads import basket_workload


class TestCounter:
    def test_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("msgs").inc()
        reg.counter("msgs").inc(2.5)
        assert reg.counter("msgs").snapshot() == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValidationError):
            MetricsRegistry().counter("msgs").inc(-1.0)


class TestGauge:
    def test_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("level").set(1.0)
        reg.gauge("level").set(7.0)
        assert reg.gauge("level").snapshot() == 7.0


class TestHistogram:
    def test_moments_match_statistics_module(self):
        values = [0.1, 0.4, 0.25, 0.9, 0.3]
        h = MetricsRegistry().histogram("lat")
        for v in values:
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == len(values)
        assert snap["sum"] == pytest.approx(sum(values))
        assert snap["min"] == min(values) and snap["max"] == max(values)
        assert snap["mean"] == pytest.approx(statistics.mean(values))
        assert snap["std"] == pytest.approx(statistics.stdev(values))

    def test_empty_and_single_observation(self):
        h = MetricsRegistry().histogram("lat")
        assert h.snapshot() == {"count": 0, "sum": 0.0, "min": 0.0,
                                "max": 0.0, "mean": 0.0, "std": 0.0,
                                "buckets": [], "p50": 0.0, "p90": 0.0,
                                "p99": 0.0, "p999": 0.0}
        h.observe(2.0)
        snap = h.snapshot()
        assert snap["std"] == 0.0
        assert snap["p50"] == 2.0 and snap["p999"] == 2.0
        assert snap["buckets"] == [[4, 1]]  # log2(2)*4 = bucket index 4

    def test_quantiles_bracket_min_max_and_interpolate(self):
        h = MetricsRegistry().histogram("lat")
        for v in range(1, 101):
            h.observe(v / 100.0)
        assert h.quantile(0.0) == h.min
        assert h.quantile(1.0) == h.max
        # Bucketed estimate lands within one bucket width (~19%) of exact.
        assert h.quantile(0.5) == pytest.approx(0.5, rel=0.2)
        assert h.quantile(0.99) == pytest.approx(0.99, rel=0.2)
        with pytest.raises(ValidationError):
            h.quantile(1.5)

    def test_nonpositive_observations_bucket_separately(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(0.0)
        h.observe(5.0)
        snap = h.snapshot()
        assert snap["count"] == 2
        assert h.quantile(0.0) == 0.0 and h.quantile(1.0) == 5.0

    def test_merge_is_exact_and_validates_type(self):
        a = MetricsRegistry().histogram("lat")
        b = MetricsRegistry().histogram("lat")
        values = [0.01, 0.2, 0.2, 3.0, 41.0]
        for v in values[:2]:
            a.observe(v)
        for v in values[2:]:
            b.observe(v)
        whole = MetricsRegistry().histogram("lat")
        for v in values:
            whole.observe(v)
        a.merge(b)
        sa, sw = a.snapshot(), whole.snapshot()
        # Bucket counts, extremes and quantiles merge exactly (integers and
        # bucket geometry); the moment sums only up to summation order.
        for key in ("count", "min", "max", "buckets", "p50", "p90", "p99",
                    "p999"):
            assert sa[key] == sw[key], key
        assert sa["sum"] == pytest.approx(sw["sum"], rel=1e-12)
        assert sa["std"] == pytest.approx(sw["std"], rel=1e-9)
        with pytest.raises(ValidationError):
            a.merge(object())


class TestRegistry:
    def test_labels_make_distinct_series_with_sorted_keys(self):
        reg = MetricsRegistry()
        reg.counter("tasks", backend="thread").inc()
        reg.counter("tasks", backend="process").inc(2)
        # Label order in the call does not matter for series identity.
        assert (reg.gauge("x", b=1, a=2)
                is reg.gauge("x", a=2, b=1))
        snap = reg.snapshot()
        assert snap["counters"]["tasks{backend=process}"] == 2.0
        assert snap["counters"]["tasks{backend=thread}"] == 1.0
        assert "x{a=2,b=1}" in snap["gauges"]

    def test_matching_and_sum_counters(self):
        reg = MetricsRegistry()
        reg.counter("hits", shard=0).inc(3)
        reg.counter("hits", shard=1).inc(4)
        reg.counter("hits").inc(1)
        reg.counter("hitsx").inc(100)          # prefix, not a label variant
        reg.gauge("hits_depth").set(9.0)
        matched = reg.matching("hits")
        assert list(matched) == ["hits", "hits{shard=0}", "hits{shard=1}"]
        assert reg.sum_counters("hits") == 8.0
        # Reading only: no series is created by matching a missing name.
        assert reg.matching("absent") == {}
        assert reg.sum_counters("absent") == 0.0
        assert len(reg) == 5

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("n")
        with pytest.raises(ValidationError):
            reg.gauge("n")

    def test_snapshot_is_insertion_order_independent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("one").inc()
        a.gauge("two").set(2.0)
        b.gauge("two").set(2.0)
        b.counter("one").inc()
        assert a.to_json() == b.to_json()
        # Canonical JSON: parseable, sorted, compact.
        doc = json.loads(a.to_json())
        assert set(doc) == {"counters", "gauges", "histograms"}
        assert " " not in a.to_json()


class TestReportBridge:
    def test_counters_match_cluster_report_exactly(self):
        c = SimulatedCluster(4)
        for r in range(4):
            c.compute(r, 100 * (r + 1))
        c.reduce(24)
        c.bcast(8)
        rep = c.report()
        snap = metrics_from_report(rep).snapshot()
        assert snap["counters"]["sim.messages"] == rep["messages"]
        assert snap["counters"]["sim.bytes_moved"] == rep["bytes_moved"]
        assert snap["gauges"]["sim.p"] == 4
        assert snap["gauges"]["sim.elapsed"] == rep["elapsed"]

    def test_per_rank_breakdown_series(self):
        c = SimulatedCluster(2)
        c.compute(0, 500)
        c.reduce(24)
        rep = c.report()
        snap = metrics_from_report(rep).snapshot()
        assert (snap["gauges"]["sim.rank_seconds{account=compute,rank=0}"]
                == rep["ranks"][0]["compute"])
        dist = snap["histograms"]["sim.rank_seconds_dist{account=idle}"]
        assert dist["count"] == 2


class TestRunBridge:
    def test_run_and_fault_series(self):
        w = basket_workload(2)
        pricer = ParallelMCPricer(4000, seed=1,
                                  faults=FaultPlan.single_crash(1),
                                  policy="retry")
        res = pricer.price(w.model, w.payoff, w.expiry, 4)
        snap = metrics_from_run(res).snapshot()
        assert snap["gauges"]["run.p{engine=mc}"] == 4
        assert snap["gauges"]["run.paths_per_sec{engine=mc}"] > 0
        assert snap["counters"]["run.retries{engine=mc}"] == 1
        assert snap["counters"]["run.fault_recoveries{engine=mc}"] == 1
        assert snap["counters"]["run.lost_ranks{engine=mc}"] == 0

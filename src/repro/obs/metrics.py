"""Metrics registry: named counters, gauges and histograms with labels.

The perf harness derives speedup/efficiency *after* a run from
``ParallelRunResult``; the metrics registry is the complementary view —
cumulative, name-addressed series (paths/sec, messages, bytes moved,
retries, per-worker task latency) that any layer can bump while running
and that snapshot to **canonical JSON** (sorted keys, fixed separators),
so two identical runs produce byte-identical snapshots, matching the
fault layer's reproducibility contract.

Series identity is ``name`` plus sorted ``label=value`` pairs, rendered
``name{k=v,...}`` in snapshots — a deliberately Prometheus-shaped naming
scheme without the dependency.
"""

from __future__ import annotations

import json
import math

from repro.errors import ValidationError

__all__ = [
    "BoundSeries",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics_from_report",
    "metrics_from_run",
]


class Counter:
    """Monotonically increasing total (messages, retries, bytes)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        amount = float(amount)
        if amount < 0:
            raise ValidationError(f"counter increments must be >= 0, got {amount}")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """Last-write-wins level (elapsed seconds, paths/sec, rank count)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> float:
        return self.value


#: Log-spaced bucket geometry: 4 buckets per octave (bucket boundaries at
#: ``2**(i/4)``, ~19% wide), clamped to ``[2**-30, 2**30)`` seconds — wide
#: enough for sub-nanosecond task latencies up to year-long walls. The
#: geometry is FIXED (not adaptive), so two histograms filled on different
#: ranks/workers bucket identically and merge exactly.
_BUCKETS_PER_OCTAVE = 4
_MIN_BUCKET = -30 * _BUCKETS_PER_OCTAVE
_MAX_BUCKET = 30 * _BUCKETS_PER_OCTAVE
#: Sentinel bucket for non-positive observations (log-undefined).
_NONPOS_BUCKET = _MIN_BUCKET - 1


def _bucket_index(value: float) -> int:
    """Fixed log-spaced bucket index for a positive observation."""
    idx = math.floor(math.log2(value) * _BUCKETS_PER_OCTAVE)
    return max(_MIN_BUCKET, min(idx, _MAX_BUCKET))


def _bucket_bounds(idx: int) -> tuple[float, float]:
    """The ``[lo, hi)`` value range bucket ``idx`` covers."""
    if idx == _NONPOS_BUCKET:
        return 0.0, 0.0
    return (2.0 ** (idx / _BUCKETS_PER_OCTAVE),
            2.0 ** ((idx + 1) / _BUCKETS_PER_OCTAVE))


class Histogram:
    """Streaming distribution summary (task latency, per-rank seconds).

    Observing is O(1): running moments (count/sum/sumsq/min/max) plus one
    increment into **fixed log-spaced buckets** (see ``_BUCKETS_PER_OCTAVE``)
    from which :meth:`quantile` estimates p50/p90/p99/p999 by cumulative
    rank with linear interpolation inside the hit bucket, clamped to the
    observed ``[min, max]``.

    Because the bucket geometry is fixed, histograms are **mergeable**:
    :meth:`merge` adds another histogram's counts in, and the merged
    quantiles are *exactly* the quantiles of observing every value into one
    histogram — independent of merge order and observation permutation
    (bucket counts are integers; asserted by the hypothesis property suite).
    Snapshots are canonical-JSON stable: buckets render as a sorted
    ``[index, count]`` list.
    """

    kind = "histogram"
    __slots__ = ("count", "total", "sumsq", "min", "max", "buckets")

    #: Quantiles every snapshot reports.
    QUANTILES = ((0.5, "p50"), (0.9, "p90"), (0.99, "p99"), (0.999, "p999"))

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.sumsq = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.sumsq += value * value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        idx = _bucket_index(value) if value > 0.0 else _NONPOS_BUCKET
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram's observations into this one (in place).

        Exact for everything rank-based: bucket counts are integers and the
        geometry is shared, so quantiles of a merge equal quantiles of the
        union, whatever the merge association.
        """
        if not isinstance(other, Histogram):
            raise ValidationError("Histogram.merge expects a Histogram")
        self.count += other.count
        self.total += other.total
        self.sumsq += other.sumsq
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        return self

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        var = (self.sumsq - self.total * self.total / self.count) / (self.count - 1)
        return math.sqrt(max(var, 0.0))

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile from the bucket counts.

        Cumulative-rank walk over the sorted buckets; the hit bucket is
        linearly interpolated and the estimate clamped to the observed
        ``[min, max]`` (so p999 of a tight distribution never exceeds the
        true maximum). Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile q must lie in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        target = q * self.count
        cum = 0
        for idx in sorted(self.buckets):
            n = self.buckets[idx]
            if cum + n >= target:
                lo, hi = _bucket_bounds(idx)
                est = lo + (hi - lo) * ((target - cum) / n)
                return min(max(est, self.min), self.max)
            cum += n
        return self.max  # pragma: no cover - rank always lands in a bucket

    def snapshot(self) -> dict:
        snap = {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "std": self.std,
            "buckets": [[idx, self.buckets[idx]]
                        for idx in sorted(self.buckets)],
        }
        for q, name in self.QUANTILES:
            snap[name] = self.quantile(q)
        return snap


def _series_key(name: str, labels: dict) -> str:
    if not labels:
        return str(name)
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create registry of labeled metric series."""

    def __init__(self):
        self._series: dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._series)

    def _get(self, cls, name: str, labels: dict):
        key = _series_key(name, labels)
        metric = self._series.get(key)
        if metric is None:
            metric = cls()
            self._series[key] = metric
        elif not isinstance(metric, cls):
            raise ValidationError(
                f"metric {key!r} already registered as {metric.kind}, "
                f"requested as {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    def matching(self, name: str) -> dict[str, object]:
        """Every series with base name ``name``, keyed by its rendered
        series key (sorted) — e.g. ``matching("serve.cache_hits")`` on a
        sharded registry yields ``{"serve.cache_hits{shard=0}": ...,
        "serve.cache_hits{shard=1}": ...}``. Reading only; series are
        not created."""
        return {key: self._series[key] for key in sorted(self._series)
                if key == name or key.startswith(name + "{")}

    def sum_counters(self, name: str) -> float:
        """Total across every labeled variant of counter ``name`` — the
        registry-wide aggregate of per-shard tallies."""
        return sum(m.value for m in self.matching(name).values()
                   if isinstance(m, Counter))

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Kind-grouped dict of every series (insertion-order independent)."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for key in sorted(self._series):
            metric = self._series[key]
            out[metric.kind + "s"][key] = metric.snapshot()
        return out

    def to_json(self) -> str:
        """Canonical JSON — byte-identical for identical metric contents."""
        return json.dumps(self.snapshot(), sort_keys=True,
                          separators=(",", ":"))


class BoundSeries(dict):
    """One registry's series under fixed labels, keyed ``(kind, name)``:
    each is looked up on its first use and held after, and one never used
    is never created, so the registry ends as a lookup per write leaves it."""

    def __init__(self, registry: MetricsRegistry, **labels: str):
        super().__init__()
        self.registry, self.labels = registry, labels

    def __missing__(self, key: tuple[str, str]):
        kind, name = key
        series = self[key] = getattr(self.registry, kind)(name, **self.labels)
        return series


# ---------------------------------------------------------------------------
# Bridges from the existing accounting objects.
# ---------------------------------------------------------------------------


def metrics_from_report(report: dict) -> MetricsRegistry:
    """Fill a registry from :meth:`SimulatedCluster.report`.

    ``sim.messages`` / ``sim.bytes_moved`` counters mirror the cluster's
    communication volume exactly (asserted in the obs test suite); the
    per-rank breakdown becomes ``sim.rank_seconds{account=...,rank=r}``
    gauges plus one histogram per account across ranks.
    """
    registry = MetricsRegistry()
    registry.counter("sim.messages").inc(report["messages"])
    registry.counter("sim.bytes_moved").inc(report["bytes_moved"])
    registry.gauge("sim.p").set(report["p"])
    for key in ("elapsed", "compute_time", "comm_time", "idle_time",
                "fault_time"):
        registry.gauge(f"sim.{key}").set(report[key])
    for r, account in enumerate(report.get("ranks", [])):
        for kind, seconds in account.items():
            registry.gauge("sim.rank_seconds", account=kind, rank=r).set(seconds)
            registry.histogram("sim.rank_seconds_dist", account=kind).observe(seconds)
    return registry


def metrics_from_run(result,
                     registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Fill a registry from a :class:`ParallelRunResult`.

    Adds engine-labeled run gauges (``run.sim_time``, ``run.paths_per_sec``
    when the engine reports a path count) and fault-recovery counters when
    a :class:`RunReport` rode along in the result meta.
    """
    if registry is None:
        registry = MetricsRegistry()
    eng = result.engine
    registry.gauge("run.sim_time", engine=eng).set(result.sim_time)
    registry.gauge("run.wall_time", engine=eng).set(result.wall_time)
    registry.gauge("run.p", engine=eng).set(result.p)
    n_paths = result.meta.get("n_paths")
    if n_paths and result.sim_time > 0:
        registry.gauge("run.paths_per_sec", engine=eng).set(
            n_paths / result.sim_time
        )
    report = result.meta.get("fault_report")
    if report is not None:
        registry.counter("run.retries", engine=eng).inc(report.n_retries)
        registry.counter("run.faults_injected", engine=eng).inc(
            report.faults_injected
        )
        registry.counter("run.fault_recoveries", engine=eng).inc(
            len(report.recovered_ranks)
        )
        registry.counter("run.lost_ranks", engine=eng).inc(
            len(report.lost_ranks)
        )
    return registry

"""Unified observability layer: spans, metrics, exporters.

One event stream for both time bases the repo measures in (the simulated
cluster's virtual clocks and the real backends' wall clock):

* :mod:`~repro.obs.tracer` — span/instant recording with a pluggable
  clock and a zero-overhead disabled fast path.
* :mod:`~repro.obs.metrics` — labeled counter/gauge/histogram registry
  with canonical-JSON snapshots; histograms keep fixed log-spaced bucket
  counts with p50/p90/p99/p999 estimation and exact merging.
* :mod:`~repro.obs.export` — Perfetto/``chrome://tracing`` JSON, flat
  span CSV, terminal summary table.
* :mod:`~repro.obs.ledger` — the append-only JSONL run ledger: one
  canonical record per measured run (stages, backend, faults, git SHA).
* :mod:`~repro.obs.diff` — ledger summaries and noise-aware regression
  diffs (the ``repro obs report`` / ``repro obs diff`` engine).
* :mod:`~repro.obs.profile` — opt-in sampling profiler exporting
  flamegraph collapsed stacks attributed to the active pipeline stage.

See the "Observability" section of docs/architecture.md for the design
and docs/tutorial.md for chaos-trace and ledger-diff walkthroughs.
"""

from repro.obs.tracer import (
    EventRecord,
    NULL_TRACER,
    SpanRecord,
    Tracer,
    track_sort_key,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_from_report,
    metrics_from_run,
)
from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    summary_table,
    write_chrome_trace,
)
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    RunRecord,
    active_ledger,
    config_digest,
    git_sha,
    new_run_id,
    read_ledger,
    record_from_result,
    set_active_ledger,
)
from repro.obs.diff import (
    DiffEntry,
    StageStats,
    diff_ledgers,
    diff_table,
    report_table,
    summarize_ledger,
)
from repro.obs.profile import SamplingProfiler, collapse_frames

__all__ = [
    "Tracer",
    "NULL_TRACER",
    "SpanRecord",
    "EventRecord",
    "track_sort_key",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics_from_report",
    "metrics_from_run",
    "chrome_trace",
    "chrome_trace_json",
    "summary_table",
    "write_chrome_trace",
    "LEDGER_SCHEMA_VERSION",
    "RunRecord",
    "RunLedger",
    "new_run_id",
    "git_sha",
    "config_digest",
    "active_ledger",
    "set_active_ledger",
    "read_ledger",
    "record_from_result",
    "StageStats",
    "DiffEntry",
    "summarize_ledger",
    "diff_ledgers",
    "report_table",
    "diff_table",
    "SamplingProfiler",
    "collapse_frames",
]

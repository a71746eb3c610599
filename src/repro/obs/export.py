"""Exporters for the unified trace/metrics stream.

Two consumers, two forms:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format, loadable in Perfetto (https://ui.perfetto.dev)
  or ``chrome://tracing``. One named track per rank/worker, complete
  (``ph: "X"``) events for spans with microsecond ``ts``/``dur``, instant
  (``ph: "i"``) events for retries/faults, ``thread_name`` metadata so
  tracks are labeled.
* :func:`summary_table` — a per-span-name aggregate
  :class:`~repro.utils.formatting.Table` for terminal output.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ValidationError
from repro.obs.tracer import Tracer
from repro.perf.reporting import write_text
from repro.utils.formatting import Table

__all__ = [
    "chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "summary_table",
]

#: Seconds → trace-event microseconds.
_US = 1e6


def _check_tracer(tracer) -> None:
    if not isinstance(tracer, Tracer):
        raise ValidationError("expected a repro.obs.Tracer")


def chrome_trace(tracer: Tracer) -> dict:
    """Render the tracer as a Chrome trace-event dict.

    Tracks map to ``tid`` in display order (``main`` = 0, then ranks,
    workers, ...); everything shares ``pid`` 0. Span args survive in each
    event's ``args``, so Perfetto shows e.g. the lattice level or the MC
    rank under the slice.
    """
    _check_tracer(tracer)
    tids = {track: tid for tid, track in enumerate(tracer.tracks())}
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": "repro"}},
    ]
    for track, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": tid, "args": {"name": track}})
    for s in tracer.spans:
        events.append({
            "name": s.name,
            "cat": "span",
            "ph": "X",
            "ts": s.t0 * _US,
            "dur": s.duration * _US,
            "pid": 0,
            "tid": tids[s.track],
            "args": dict(s.args),
        })
    for e in tracer.events:
        events.append({
            "name": e.name,
            "cat": "instant",
            "ph": "i",
            "s": "t",
            "ts": e.t * _US,
            "pid": 0,
            "tid": tids[e.track],
            "args": dict(e.args),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(tracer: Tracer) -> str:
    """Canonical JSON text of :func:`chrome_trace`."""
    return json.dumps(chrome_trace(tracer), sort_keys=True,
                      separators=(",", ":"))


def write_chrome_trace(tracer: Tracer, path) -> Path:
    """Write the Perfetto-loadable trace JSON to ``path``."""
    return write_text(path, chrome_trace_json(tracer))


def summary_table(tracer: Tracer) -> Table:
    """Per-span-name aggregate (count/total/mean/max), busiest first."""
    _check_tracer(tracer)
    agg: dict[str, list[float]] = {}
    for s in tracer.spans:
        entry = agg.setdefault(s.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += s.duration
        entry[2] = max(entry[2], s.duration)
    n_events = len(tracer.events)
    table = Table(
        ["span", "count", "total [s]", "mean [s]", "max [s]"],
        title=f"trace summary — {len(tracer.spans)} span(s), "
              f"{n_events} instant event(s) on {len(tracer.tracks())} track(s)",
        floatfmt=".4g",
    )
    for name, (count, total, peak) in sorted(
            agg.items(), key=lambda kv: -kv[1][1]):
        table.add_row([name, count, total, total / count, peak])
    return table

"""Exporters for experiment results: CSV and Markdown.

The benchmarks print ASCII tables; downstream consumers (papers, CI
artifact diffs, spreadsheets) want machine-readable forms. These helpers
convert a :class:`~repro.utils.formatting.Table` or a
:class:`~repro.perf.metrics.ScalingSeries` without reformatting the
numbers the benchmarks computed.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from repro.errors import ValidationError
from repro.parallel.faults import RunReport
from repro.perf.metrics import ScalingSeries
from repro.utils.formatting import Table

__all__ = [
    "table_to_csv",
    "table_to_markdown",
    "series_to_csv",
    "run_report_to_csv",
    "run_report_to_markdown",
    "write_text",
]


def _csv_cell(value) -> str:
    """RFC 4180 escaping for one cell.

    ``csv.writer`` with ``lineterminator="\\n"`` only quotes characters it
    considers special — a bare ``\\r`` inside a cell slips through unquoted
    and corrupts the row for strict readers. Escape explicitly: quote any
    cell containing a comma, quote, CR or LF, doubling embedded quotes.
    """
    text = value if isinstance(value, str) else str(value)
    if any(ch in text for ch in (",", '"', "\n", "\r")):
        return '"' + text.replace('"', '""') + '"'
    return text


def table_to_csv(table: Table) -> str:
    """Render a :class:`Table` as CSV text (header row + data rows).

    Floats are written at full ``repr`` precision — CSV is the
    machine-consumer format, and rounding it would make artifact diffs lie
    about what was measured. Cells are escaped per RFC 4180 (commas,
    quotes and embedded line breaks — including bare ``\\r`` — are
    quoted).
    """
    if not isinstance(table, Table):
        raise ValidationError("table_to_csv expects a repro Table")
    lines = [",".join(_csv_cell(h) for h in table.headers)]
    for row in table.rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def table_to_markdown(table: Table) -> str:
    """Render a :class:`Table` as a GitHub-flavoured Markdown table."""
    if not isinstance(table, Table):
        raise ValidationError("table_to_markdown expects a repro Table")
    headers = [str(h) for h in table.headers]
    lines = []
    if table.title:
        lines.append(f"**{table.title}**")
        lines.append("")
    lines.append("| " + " | ".join(headers) + " |")
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in table.rows:
        cells = [
            format(v, table.floatfmt) if isinstance(v, float) else str(v)
            for v in row
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def series_to_csv(series: ScalingSeries) -> str:
    """Export a scaling series with its derived speedup/efficiency columns."""
    if not isinstance(series, ScalingSeries):
        raise ValidationError("series_to_csv expects a ScalingSeries")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p", "time_s", "speedup", "efficiency"])
    for p, t, s, e in zip(series.ps, series.times, series.speedups,
                          series.efficiencies):
        writer.writerow([p, repr(float(t)), repr(float(s)), repr(float(e))])
    return buf.getvalue()


def run_report_to_csv(report: RunReport) -> str:
    """Export a fault :class:`RunReport` as a per-attempt CSV ledger."""
    if not isinstance(report, RunReport):
        raise ValidationError("run_report_to_csv expects a faults.RunReport")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rank", "attempt", "outcome", "backoff_s", "lost"])
    for a in sorted(report.attempts, key=lambda x: (x.rank, x.attempt)):
        writer.writerow([a.rank, a.attempt, a.outcome, repr(float(a.backoff)),
                         int(a.rank in report.lost_ranks)])
    return buf.getvalue()


def run_report_to_markdown(report: RunReport) -> str:
    """Render a fault :class:`RunReport` as a Markdown table with summary."""
    if not isinstance(report, RunReport):
        raise ValidationError("run_report_to_markdown expects a faults.RunReport")
    lines = [
        f"**Fault report ({report.summary()})**",
        "",
        "| rank | attempt | outcome | backoff (s) | detail |",
        "| --- | --- | --- | --- | --- |",
    ]
    for a in sorted(report.attempts, key=lambda x: (x.rank, x.attempt)):
        lines.append(
            f"| {a.rank} | {a.attempt} | {a.outcome} | {a.backoff:g} | {a.detail} |"
        )
    if report.lost_ranks:
        lines.append("")
        lines.append(f"Lost ranks (degraded run): {list(report.lost_ranks)}")
    return "\n".join(lines)


def write_text(path: str | Path, content: str) -> Path:
    """Write exported text to disk, creating parent directories."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(content)
    return out

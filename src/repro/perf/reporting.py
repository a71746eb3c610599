"""Exporters for experiment results: CSV text and files on disk.

The benchmarks print ASCII tables; downstream consumers (papers, CI
artifact diffs, spreadsheets) want machine-readable forms. These helpers
convert a :class:`~repro.utils.formatting.Table` without reformatting the
numbers the benchmarks computed.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import ValidationError
from repro.utils.formatting import Table

__all__ = ["table_to_csv", "write_text"]


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


def write_text(path: str | Path, content: str) -> Path:
    """Write exported text to disk, creating parent directories."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(content)
    return out

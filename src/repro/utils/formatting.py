"""Plain-text table rendering for the benchmark harness.

The benchmark scripts print paper-style tables (T1..T7) and figure series
(F1..F9) as aligned ASCII so they can be diffed and recorded in
EXPERIMENTS.md without any plotting dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = ["Table"]


def _fmt_cell(value, floatfmt: str) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, floatfmt)
    return str(value)


@dataclass
class Table:
    """An incrementally built ASCII table.

    Example
    -------
    >>> t = Table(["P", "T(P) [s]", "speedup"], title="MC scaling")
    >>> t.add_row([1, 1.0, 1.0])
    >>> t.add_row([2, 0.52, 1.92])
    >>> print(t.render())  # doctest: +SKIP
    """

    headers: Sequence[str]
    title: str | None = None
    floatfmt: str = ".4g"
    rows: list[list] = field(default_factory=list)

    def add_row(self, row: Iterable) -> None:
        row = list(row)
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        cells = [[_fmt_cell(v, self.floatfmt) for v in row] for row in self.rows]
        headers = [str(h) for h in self.headers]
        widths = [
            max(len(headers[j]), *(len(r[j]) for r in cells)) if cells else len(headers[j])
            for j in range(len(headers))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append(sep)
        for r in cells:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(r, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
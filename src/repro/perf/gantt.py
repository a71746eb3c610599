"""ASCII Gantt rendering of a simulated cluster's execution trace.

Turn on tracing with ``SimulatedCluster(p, record=True)``; after a run,
:func:`render_gantt` draws one timeline row per rank:

    rank 0 |################~~....|
    rank 1 |####xxxx####..~~~~....|

``#`` compute, ``~`` communication, ``.`` idle/wait, ``x`` fault-recovery
(wasted attempts charged by the resilience layer), space = before any
recorded activity. The picture makes the engines' signatures visible at a
glance: MC rows are solid ``#`` with a sliver of ``~`` at the end; the
lattice alternates ``#``/``~`` every level; ADI shows the broad ``~``
all-to-all bands; a chaos run shows ``x`` bands on the faulted ranks.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.utils.validation import check_positive_int

__all__ = ["render_gantt"]

_GLYPHS = {"compute": "#", "comm": "~", "idle": ".", "fault": "x"}


def render_gantt(cluster, *, width: int = 72) -> str:
    """Render ``cluster.trace`` as an ASCII timeline, one row per rank.

    Each column covers ``elapsed/width`` seconds; a column's glyph is the
    activity occupying the most time in that bin (compute > comm > idle on
    ties, so busy work is never hidden by waiting). A time scale and a
    glyph legend follow the rank rows.
    """
    check_positive_int("width", width)
    if not getattr(cluster, "record", False):
        raise ValidationError(
            "tracing was not enabled; construct SimulatedCluster(p, record=True)"
        )
    horizon = cluster.elapsed()
    if horizon <= 0.0 or not cluster.trace:
        return "\n".join(f"rank {r:<3d}|{' ' * width}|" for r in range(cluster.p))

    # occupancy[rank, column, kind-index] = seconds of that kind in the bin
    kinds = ("compute", "comm", "idle", "fault")
    occupancy = np.zeros((cluster.p, width, len(kinds)))
    scale = width / horizon
    for rank, t0, t1, kind in cluster.trace:
        k = kinds.index(kind)
        c0 = t0 * scale
        c1 = t1 * scale
        first = int(c0)
        last = min(int(np.ceil(c1)), width)
        for col in range(first, last):
            overlap = min(c1, col + 1) - max(c0, col)
            if overlap > 0:
                occupancy[rank, col, k] += overlap / scale

    lines = []
    for r in range(cluster.p):
        row = []
        for col in range(width):
            cell = occupancy[r, col]
            if cell.sum() <= 0.0:
                row.append(" ")
            else:
                row.append(_GLYPHS[kinds[int(np.argmax(cell))]])
        lines.append(f"rank {r:<3d}|{''.join(row)}|")
    lines.append(f"        0{' ' * (width - 10)}{horizon:.4g}s")
    lines.append("        # compute   ~ communication   . idle   x fault")
    return "\n".join(lines)

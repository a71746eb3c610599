"""In-memory spans and the self-time / closure arithmetic over them.

The benchmark's own wrappers (``adapters.py``) open a span at every layer
boundary they can reach from outside the program; nothing here knows
about ``repro``. A span records its layer, a name, the *track* it belongs
to (one track per request on the gateway workloads, one per round
elsewhere), the span that caused it, and its start and end on
``time.perf_counter`` — system-wide on Linux, so spans timed inside
forked pool workers land on the parent's timeline.

Self time follows the choosing-metrics guide: a span's duration minus
the part of that interval its child spans cover. Children that overlap
(the tasks of one ``backend.map`` running on two workers) split the
covered time equally while they overlap, so the self times of a tree
always sum to its root's duration and a parallel map cannot push the
closure above 1. The root spans carry layer :data:`ROOT`; their self
time is what no layer span covered and is reported as unattributed,
never folded into a layer.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["ROOT", "Span", "SpanRecorder", "blocking_self_times",
           "layer_self_times", "closure"]

#: Layer name of the per-request / per-round root spans.
ROOT = "root"


class Span:
    """One timed interval at a layer boundary."""

    __slots__ = ("layer", "name", "track", "parent", "t0", "t1")

    def __init__(self, layer, name, track, parent, t0, t1=None):
        self.layer = layer
        self.name = name
        self.track = track
        self.parent = parent
        self.t0 = t0
        self.t1 = t1

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def __repr__(self) -> str:
        return (f"Span({self.layer}.{self.name} track={self.track} "
                f"{self.t0:.6f}..{self.t1})")


class SpanRecorder:
    """Collects spans in memory; one open-span stack per track.

    A track's spans are opened and closed one after another (a request is
    in one place at a time), possibly from different threads, so each
    stack is only ever touched by the thread currently holding that
    request; ``list.append`` on the shared span list is atomic.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: dict[object, list[Span]] = {}

    def current(self, track=0) -> Span | None:
        stack = self._open.get(track)
        return stack[-1] if stack else None

    def begin(self, layer: str, name: str, track=0) -> Span:
        stack = self._open.setdefault(track, [])
        span = Span(layer, name, track, stack[-1] if stack else None,
                    self.clock())
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.t1 = self.clock()
        stack = self._open[span.track]
        if stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)
        if not stack:
            del self._open[span.track]

    @contextmanager
    def span(self, layer: str, name: str, track=0):
        span = self.begin(layer, name, track)
        try:
            yield span
        finally:
            self.end(span)

    def add(self, layer: str, name: str, t0: float, t1: float, track=0,
            parent: Span | None = None) -> Span:
        """Record an interval measured elsewhere (a gap between two
        boundaries, or a task timed on a pool worker's clock)."""
        if parent is None:
            parent = self.current(track)
        span = Span(layer, name, track, parent, t0, max(t1, t0))
        self.spans.append(span)
        return span

    def closed(self) -> list[Span]:
        return [s for s in self.spans if s.t1 is not None]


def _cover(parent: Span, kids: list[Span]) -> tuple[float, list[float]]:
    """Length of ``parent``'s interval its children cover, and each
    child's share of it (overlapping children split the overlap)."""
    lo, hi = parent.t0, parent.t1
    clipped = [(max(k.t0, lo), min(k.t1, hi)) for k in kids]
    order = sorted(range(len(kids)), key=lambda i: clipped[i][0])
    sequential = all(clipped[a][1] <= clipped[b][0]
                     for a, b in zip(order, order[1:]))
    if sequential:
        shares = [max(b - a, 0.0) for a, b in clipped]
        return sum(shares), shares
    events = []
    for i, (a, b) in enumerate(clipped):
        if b > a:
            events.append((a, 1, i))
            events.append((b, 0, i))
    events.sort()
    shares = [0.0] * len(kids)
    active: set[int] = set()
    covered = 0.0
    prev = lo
    for t, opening, i in events:
        if active and t > prev:
            covered += t - prev
            part = (t - prev) / len(active)
            for j in active:
                shares[j] += part
        prev = t
        if opening:
            active.add(i)
        else:
            active.discard(i)
    return covered, shares


def blocking_self_times(spans: list[Span]) -> list[tuple[Span, float]]:
    """Each span's self time on the blocking path of its tree."""
    children: dict[int, list[Span]] = defaultdict(list)
    roots = []
    for span in spans:
        if span.parent is None:
            roots.append(span)
        else:
            children[id(span.parent)].append(span)
    out: list[tuple[Span, float]] = []
    todo = [(root, 1.0) for root in roots]
    while todo:
        span, weight = todo.pop()
        kids = children.get(id(span))
        if not kids:
            out.append((span, weight * span.duration))
            continue
        covered, shares = _cover(span, kids)
        out.append((span, weight * (span.duration - covered)))
        for kid, share in zip(kids, shares):
            dur = kid.duration
            todo.append((kid, weight * share / dur if dur > 0.0 else 0.0))
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Blocking self time summed per layer (seconds)."""
    table: dict[str, float] = defaultdict(float)
    for span, self_time in blocking_self_times(spans):
        table[span.layer] += self_time
    return dict(table)


def closure(spans: list[Span]) -> tuple[float, float, float]:
    """``(closure_share, unattributed_s, wall_s)`` of a span forest.

    ``wall_s`` is the summed duration of the root spans (measured by the
    same outer timers the untraced run reports from); the share is the
    part of it that spans of named layers account for.
    """
    table = layer_self_times(spans)
    wall = sum(s.duration for s in spans if s.parent is None)
    unattributed = table.get(ROOT, 0.0)
    attributed = sum(v for k, v in table.items() if k != ROOT)
    return (attributed / wall if wall > 0.0 else 0.0), unattributed, wall

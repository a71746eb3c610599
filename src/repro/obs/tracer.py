"""Span-based tracer: one event stream for simulated and real timelines.

The repo measures the same quantity two ways — the :class:`SimulatedCluster`
advances virtual per-rank clocks, the real backends advance
``time.perf_counter`` — and before this module each kept a private record.
The tracer unifies them: every instrumented layer appends **spans**
(named, timed intervals on a *track*) and **instant events** (points in
time) to one stream, which the exporters in :mod:`repro.obs.export` turn
into Perfetto/``chrome://tracing`` JSON, CSV, or a terminal summary.

Clock substitution is the design center, mirroring DESIGN.md's machine
substitution:

* real backends measure with the tracer's ``clock`` (default
  ``time.perf_counter``) via the :meth:`Tracer.span` context manager;
* the simulated machine reports *virtual* timestamps explicitly via
  :meth:`Tracer.add_span` / :meth:`Tracer.instant` — its timeline is
  retrospective (a rank's interval is known only once charged), so it does
  not tick a clock, it states the interval.

Never mix the two time bases in one tracer: a simulated trace and a
wall-clock trace are different coordinate systems and belong in separate
:class:`Tracer` instances (the CLI writes them to separate files).

Disabled fast path: ``Tracer(enabled=False)`` (or the shared
:data:`NULL_TRACER`) makes every recording call an immediate no-op and the
tracer itself falsy, so call sites gate whole instrumentation blocks with
``if tracer:`` — benchmark F14 holds this to noise-level overhead.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ValidationError

__all__ = [
    "SpanRecord",
    "EventRecord",
    "Tracer",
    "NULL_TRACER",
    "track_sort_key",
]


@dataclass
class SpanRecord:
    """A named, closed time interval on one track."""

    name: str
    t0: float
    t1: float
    track: str
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass
class EventRecord:
    """A named instant (retry fired, rank degraded, ...) on one track."""

    name: str
    t: float
    track: str
    args: dict = field(default_factory=dict)


def _resolve_track(rank, track) -> str:
    if track is not None:
        return str(track)
    if rank is None:
        return "main"
    return f"rank{int(rank)}"


_TRACK_NUM = re.compile(r"^(.*?)(\d+)$")


def track_sort_key(track: str):
    """Display order for tracks: ``main`` first, then numeric-suffixed
    families in index order (rank0..rankN, worker0..workerM), then the
    rest alphabetically."""
    if track == "main":
        return (0, "", 0)
    m = _TRACK_NUM.match(track)
    if m:
        return (1, m.group(1), int(m.group(2)))
    return (2, track, 0)


class _NullSpan:
    """Reusable no-op context manager (the disabled fast path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Live span: reads the clock on enter/exit, records on exit."""

    __slots__ = ("_tracer", "_name", "_track", "_args", "t0")

    def __init__(self, tracer: "Tracer", name: str, track: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._track = track
        self._args = args
        self.t0: float | None = None

    def __enter__(self) -> "_Span":
        self.t0 = self._tracer.clock()
        return self

    def __exit__(self, *exc) -> bool:
        t1 = self._tracer.clock()
        self._tracer.spans.append(
            SpanRecord(self._name, self.t0, t1, self._track, self._args)
        )
        return False


class Tracer:
    """Collects spans and instant events on named tracks.

    Parameters
    ----------
    enabled : False makes every call a no-op and the tracer falsy.

    ``clock`` is the zero-argument callable returning seconds that the
    :meth:`span` context manager and the default ``t`` of :meth:`instant`
    read: ``perf_counter``, which a test may replace by assignment. The
    simulated machine bypasses the clock entirely via :meth:`add_span`.
    """

    def __init__(self, *, enabled: bool = True):
        self.enabled = bool(enabled)
        self.clock: Callable[[], float] = time.perf_counter
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []

    def __bool__(self) -> bool:
        return self.enabled

    def __len__(self) -> int:
        return len(self.spans) + len(self.events)

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **args):
        """Context manager timing a block, on the ``main`` track, with the
        tracer's clock."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, str(name), "main", args)

    def add_span(self, name: str, t0: float, t1: float, *,
                 rank: int | None = None, track: str | None = None,
                 **args) -> None:
        """Record a span with explicit timestamps (the simulated timeline)."""
        if not self.enabled:
            return
        t0 = float(t0)
        t1 = float(t1)
        if t1 < t0:
            raise ValidationError(f"span {name!r} ends before it starts: "
                                  f"[{t0}, {t1}]")
        self.spans.append(SpanRecord(str(name), t0, t1,
                                     _resolve_track(rank, track), args))

    def instant(self, name: str, *, rank: int | None = None,
                track: str | None = None, t: float | None = None,
                **args) -> None:
        """Record a point event at ``t`` (clock time when omitted)."""
        if not self.enabled:
            return
        when = self.clock() if t is None else float(t)
        self.events.append(EventRecord(str(name), when,
                                       _resolve_track(rank, track), args))

    # -- queries -------------------------------------------------------------

    def tracks(self) -> list[str]:
        """All tracks seen so far, in display order."""
        seen = {s.track for s in self.spans} | {e.track for e in self.events}
        return sorted(seen, key=track_sort_key)

    def clear(self) -> None:
        """Drop every recorded span and event (the tracer stays usable)."""
        self.spans.clear()
        self.events.clear()


#: Shared disabled tracer: pass where an API wants a tracer but the caller
#: wants zero recording (equivalent to passing None at every call site).
NULL_TRACER = Tracer(enabled=False)

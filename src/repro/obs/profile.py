"""Opt-in sampling profiler: collapsed stacks attributed to active spans.

A :class:`SamplingProfiler` watches one target thread from a background
sampler thread: every ``interval_s`` it snapshots the target's Python
stack via ``sys._current_frames()`` and counts the collapsed frame chain
(``leafward;...;rootward`` reversed to flamegraph's ``root;...;leaf``
order). Samples taken while a labeled region is active are prefixed with
that label, so the profile splits by pipeline stage/engine — the runner
wraps the execute stage in :meth:`profile` when a profiler is attached to
the engine config (``pricer.profiler = SamplingProfiler()``), exactly like
the tracer attachment idiom.

The output is the **collapsed-stack** format consumed by flamegraph.pl,
speedscope and Perfetto's flame importer: one line per distinct stack,
``frame;frame;frame count``. ``repro obs flame`` is the CLI wrapper.

Design constraints:

* **Opt-in, zero ambient cost** — nothing samples unless a profiler is
  attached *and* started; the runner's check is one ``getattr``.
* **Sampling, not tracing** — no ``sys.settrace``; the target thread is
  never slowed beyond the GIL cost of a stack walk every few ms (the
  interval defaults to 5 ms ≈ 200 Hz).
* **Honest about bias** — samples land only when the sampler thread gets
  the GIL; long native sections (NumPy kernels) attribute to the Python
  frame that called them, which is precisely the attribution a pricing
  profile wants.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.errors import ValidationError
from repro.perf.reporting import write_text
from repro.utils.validation import check_positive

__all__ = ["SamplingProfiler", "collapse_frames"]

#: Stacks deeper than this are truncated root-side (keep the leaves: the
#: hot code is at the leaf end; the root end is interpreter scaffolding).
_MAX_DEPTH = 64


def collapse_frames(frame) -> str:
    """Collapse a frame chain into ``root;...;leaf`` flamegraph order."""
    parts: list[str] = []
    while frame is not None and len(parts) < _MAX_DEPTH:
        code = frame.f_code
        module = frame.f_globals.get("__name__", Path(code.co_filename).stem)
        parts.append(f"{module}:{code.co_name}")
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """Samples one thread's stack into labeled collapsed-stack counts.

    Parameters
    ----------
    interval_s : seconds between samples (default 5 ms).

    The sampled thread is the one that first calls :meth:`start` (the
    pricing thread).

    Usage::

        prof = SamplingProfiler()
        pricer.profiler = prof            # runner starts/stops per stage
        pricer.price(model, payoff, expiry, p)
        prof.write_collapsed("out.collapsed")
    """

    def __init__(self, interval_s: float = 0.005):
        self.interval_s = check_positive("interval_s", interval_s)
        self.target_ident: int | None = None
        #: collapsed stack -> sample count (the flamegraph input).
        self.samples: dict[str, int] = {}
        #: total samples taken (== sum of ``samples.values()``).
        self.n_samples = 0
        self._label: str | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- sampling -------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        """Begin sampling the target thread (idempotent)."""
        if self._thread is not None:
            return self
        if self.target_ident is None:
            self.target_ident = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(target=self._sample_loop,
                                        name="repro-profiler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampler thread and join it (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None

    def _sample_loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            frame = sys._current_frames().get(self.target_ident)
            if frame is not None:
                self._record(collapse_frames(frame))

    def _record(self, stack: str) -> None:
        """Count one collapsed stack under the active label (test seam)."""
        label = self._label
        key = f"{label};{stack}" if label else stack
        self.samples[key] = self.samples.get(key, 0) + 1
        self.n_samples += 1

    # -- span attribution ----------------------------------------------

    @contextmanager
    def profile(self, label: str) -> Iterator["SamplingProfiler"]:
        """Label samples taken inside the block and keep the sampler live.

        Nested labels join with ``;`` so a stage inside a run shows as a
        flamegraph child (``mc.execute;reduce`` etc.). Starts the sampler
        on first entry; the sampler keeps running between blocks (unlabeled
        samples still count) until :meth:`stop`.
        """
        if not label:
            raise ValidationError("profile label must be non-empty")
        self.start()
        previous = self._label
        self._label = f"{previous};{label}" if previous else str(label)
        try:
            yield self
        finally:
            self._label = previous

    # -- export ---------------------------------------------------------

    def collapsed(self) -> str:
        """The collapsed-stack text: ``stack count`` per line, sorted by
        descending count then stack (stable across runs of equal counts)."""
        lines = [f"{stack} {count}" for stack, count in
                 sorted(self.samples.items(), key=lambda kv: (-kv[1], kv[0]))]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path) -> Path:
        """Write :meth:`collapsed` to ``path`` (flamegraph.pl input)."""
        return write_text(path, self.collapsed())

    def top(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` hottest stacks (count-descending)."""
        return sorted(self.samples.items(),
                      key=lambda kv: (-kv[1], kv[0]))[:n]

    def clear(self) -> None:
        self.samples.clear()
        self.n_samples = 0

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


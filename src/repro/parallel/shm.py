"""Shared-memory array transport for the fork process backend.

The process pool's default transport pickles every task through a pipe:
serialize (one copy), chunked 64 KiB pipe writes (syscalls), deserialize
(another copy) — per task. For path/lattice/scenario arrays that cost
dominates the map. This module moves any large contiguous ndarray through
a POSIX shared-memory segment instead: the parent performs one memcpy
into ``/dev/shm``, the task ships a ~100-byte :class:`SharedArrayRef`,
and each worker memcpys the block back out (or maps it zero-copy inside
a context manager).

Lifecycle contract — **no leaked segments**:

* :class:`ShmSession` owns every segment it creates; ``close()`` (idempotent,
  also the context-manager exit) closes *and unlinks* them all, so nothing
  survives in ``/dev/shm`` after a map. :class:`~repro.parallel.backends.
  ProcessBackend` closes its session in a ``finally`` even when the map
  raises.
* Workers attach by name, copy, and detach immediately — with tracker
  registration suppressed, because under a fork pool the attachment would
  land in the *owner's* resource tracker and corrupt its register/unlink
  bookkeeping (a known CPython < 3.13 wart; see :func:`_attach`).

Values are moved bit-for-bit: ``pack`` → ``unpack`` round-trips arrays
``np.array_equal``-identical with the same dtype and shape, so switching
the transport can never change a price.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.utils.validation import check_positive_int

__all__ = ["SharedArrayRef", "ShmSession", "ShmWorker"]


def _attach(name: str):
    """Attach to an existing segment *without* resource-tracker tracking.

    Only the creating :class:`ShmSession` owns a segment's lifetime.
    ``SharedMemory(name=...)`` on CPython < 3.13 nevertheless registers the
    attachment with the resource tracker — under a fork pool that is the
    *parent's* tracker, so the bogus entry collides with the owner's
    register/unlink bookkeeping and the tracker prints KeyError tracebacks
    at unlink time. CPython 3.13 grew ``track=False`` for exactly this;
    for older versions we briefly suppress ``resource_tracker.register``
    around the attach (each pool worker runs one task at a time, so the
    swap cannot race within the worker process).
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - exercised on CPython < 3.13
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


@dataclass(frozen=True)
class SharedArrayRef:
    """Picklable handle to an ndarray parked in a shared-memory segment.

    The tuple ``(segment name, dtype string, shape)`` is all a worker
    needs to rebuild the array; the handle itself is what travels through
    the pool's pickle pipe.
    """

    name: str
    dtype: str
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        n = 1
        for dim in self.shape:
            n *= dim
        return n * np.dtype(self.dtype).itemsize

    def load(self) -> np.ndarray:
        """Copy the array out of the segment (safe past segment close)."""
        shm = _attach(self.name)
        try:
            view = np.ndarray(self.shape, dtype=np.dtype(self.dtype),
                              buffer=shm.buf)
            return view.copy()
        finally:
            shm.close()


class ShmSession:
    """Owns the shared-memory segments backing one map's task payloads.

    ``pack`` recursively walks tuples/lists/dicts and swaps every
    C-contiguous ndarray of at least ``min_bytes`` bytes for a
    :class:`SharedArrayRef`; everything else passes through untouched.
    ``unpack`` (used worker-side via :class:`ShmWorker`) is its exact
    inverse. ``close`` unlinks every segment and is idempotent.
    """

    def __init__(self, *, min_bytes: int = 1 << 16):
        self.min_bytes = check_positive_int("min_bytes", min_bytes)
        self._segments: list = []  # SharedMemory objects we created
        self._by_id: dict[int, SharedArrayRef] = {}
        self._closed = False

    # -- creation side -------------------------------------------------

    @property
    def segment_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self._segments)

    @property
    def total_bytes(self) -> int:
        return sum(s.size for s in self._segments)

    def share(self, array: np.ndarray) -> SharedArrayRef:
        """Park one array in a segment; returns its handle.

        The same array *object* appearing in several tasks (e.g. one
        scenario matrix revalued under many payoffs) is parked once and
        every task receives the same handle. The identity map is safe for
        the session's lifetime because the caller's task list keeps each
        packed array alive.
        """
        if self._closed:
            raise ValidationError("ShmSession is closed")
        ref = self._by_id.get(id(array))
        if ref is not None:
            return ref
        from multiprocessing import shared_memory

        arr = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
        self._segments.append(shm)
        dest = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        dest[...] = arr
        ref = SharedArrayRef(shm.name, arr.dtype.str, tuple(arr.shape))
        self._by_id[id(array)] = ref
        return ref

    def pack(self, obj):
        """Deep-replace large ndarrays in ``obj`` with shared refs."""
        if isinstance(obj, np.ndarray):
            if obj.nbytes >= self.min_bytes:
                return self.share(obj)
            return obj
        if isinstance(obj, tuple):
            return tuple(self.pack(v) for v in obj)
        if isinstance(obj, list):
            return [self.pack(v) for v in obj]
        if isinstance(obj, dict):
            return {k: self.pack(v) for k, v in obj.items()}
        return obj

    def close(self) -> None:
        """Close and unlink every owned segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shm in self._segments:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []
        self._by_id = {}

    def __enter__(self) -> "ShmSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- worker side ---------------------------------------------------

    @staticmethod
    def unpack(obj):
        """Deep-replace :class:`SharedArrayRef` handles with their arrays."""
        if isinstance(obj, SharedArrayRef):
            return obj.load()
        if isinstance(obj, tuple):
            return tuple(ShmSession.unpack(v) for v in obj)
        if isinstance(obj, list):
            return [ShmSession.unpack(v) for v in obj]
        if isinstance(obj, dict):
            return {k: ShmSession.unpack(v) for k, v in obj.items()}
        return obj


class ShmWorker:
    """Picklable worker wrapper: unpack shared refs, then run the worker."""

    __slots__ = ("worker",)

    def __init__(self, worker):
        self.worker = worker

    def __call__(self, task):
        return self.worker(ShmSession.unpack(task))

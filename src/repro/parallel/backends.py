"""Real execution backends for rank tasks.

A backend maps a worker function over per-rank task descriptions and
returns the per-rank results in rank order. Three implementations:

* :class:`SerialBackend` — runs ranks one after another in-process. The
  reference: simulated timing plus serial execution is how the evaluation
  produces deterministic curves.
* :class:`ThreadBackend` — a thread pool. NumPy releases the GIL inside
  large kernels, so path-generation-heavy ranks do overlap.
* :class:`ProcessBackend` — a ``fork`` multiprocessing pool: real
  multi-core execution. The worker and its task must be picklable
  (the parallel pricers use module-level workers for this reason).

Every backend is an idempotent context manager: ``close()`` may be called
any number of times, ``with make_backend(...) as b: ...`` always releases
pooled resources (including after a worker crash — the process pool is
terminated rather than joined if its last ``map`` raised), and mapping on
a closed backend raises :class:`~repro.errors.BackendError`.

Throughput controls (added for the serving layer, used by every caller
that maps many small tasks):

* ``map(..., chunksize=)`` groups consecutive tasks into one dispatch
  each — ``"auto"`` applies :func:`suggest_chunksize`, and
  :class:`ChunkAutotuner` refines the choice from observed per-task
  latency. Chunking changes only the transport: results are identical
  for every chunk size (asserted bitwise in the backend tests). With a
  tracer attached, one ``task`` span then covers one chunk.
* ``ProcessBackend(shm_min_bytes=...)`` moves large contiguous ndarrays
  in task payloads through ``multiprocessing.shared_memory`` segments
  instead of the pool's pickle pipe; segments are always unlinked before
  ``map`` returns (see :mod:`repro.parallel.shm`).

Observability: pass ``tracer=`` (a :class:`~repro.obs.Tracer`, wall-clock
based) and/or assign ``backend.metrics`` (a
:class:`~repro.obs.MetricsRegistry`) and every ``map`` records one
``<name>.map`` span plus a per-task ``task`` span on a ``worker{i}``
track, and observes per-task latency into the
``task_latency{backend=...}`` histogram. Timestamps come from
``time.perf_counter`` *inside* the worker — on Linux that clock is
system-wide, so spans from forked children land on the parent's timeline.
Without a tracer the original uninstrumented path runs unchanged.

One BLAS thread per process: a pooled backend's workers are the
program's unit of parallelism (one rank per processor, as in the paper),
so opening a thread or process pool first caps NumPy's OpenBLAS at one
thread in this process — before the fork, so every worker inherits the
cap — and closing the last open pool restores the count it found. Left
at one BLAS thread per vCPU in the parent *and* in each worker, the rank
kernel's ``(n, d)`` gemm oversubscribes the host and the parent's idle
BLAS threads spin. The gemm's bits do not depend on the thread count
(``tests/test_parallel_blas_pinned.py``).

A map is a draw scope: tasks that share a seed (a book's singles) draw
the same Philox normal blocks, so a map of two or more tasks draws each
once per process and shares it read-only
(:class:`~repro.rng.normal.DrawScope`, opened by
:func:`~repro.rng.normal.task_scope`). A map run inside a scope — a
scoped task's (an engine's rank map) or one risk sweep's
(:func:`~repro.risk.var.revalue_book`) — joins that scope, one-task maps
included. An in-process scope dies with its map; a process pool is sent
only its token, and each worker keeps the scope of the newest token it
has seen. ``submit`` opens no scope.

Experiment F9 runs the same pricing job on all three and compares
wall-clock against the simulated curve.
"""

from __future__ import annotations

import abc
import ctypes
import math
import os
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import as_completed as _futures_as_completed
from typing import Callable, Sequence

from repro.errors import BackendError, ValidationError
from repro.rng.normal import DrawScope, draw_scope, task_scope
from repro.utils.validation import check_positive_int

__all__ = ["ExecutionBackend", "SerialBackend", "ThreadBackend",
           "ProcessBackend", "TaskHandle", "make_backend",
           "suggest_chunksize", "ChunkAutotuner"]

#: How OpenBLAS builds spell ``openblas_<fn>``: NumPy's bundled
#: scipy-openblas (ILP64, then LP64), then a plain ILP64 or LP64 build.
_OPENBLAS_NAMES = ("scipy_openblas_{}64_", "scipy_openblas_{}",
                   "openblas_{}64_", "openblas_{}")


def _openblas(fn: str):
    """``openblas_<fn>`` (``get_num_threads`` or ``set_num_threads``) of
    the BLAS NumPy is linked against, or None."""
    try:
        try:
            from numpy._core import _multiarray_umath as ext
        except ImportError:  # pragma: no cover - NumPy < 2
            from numpy.core import _multiarray_umath as ext
        lib = ctypes.CDLL(ext.__file__)
    except (ImportError, OSError):
        return None
    for name in _OPENBLAS_NAMES:
        try:
            sym = getattr(lib, name.format(fn))
        except AttributeError:
            continue
        sym.argtypes, sym.restype = {"get_num_threads": ([], ctypes.c_int),
                                     "set_num_threads": ([ctypes.c_int], None)}[fn]
        return sym
    return None


class _BlasCap:
    """One BLAS thread in this process while any pooled backend is open.

    The count lives in the BLAS library, so this is process-global too.
    The first pool to open saves the count and sets one thread (before
    any fork, so forked workers inherit it); the last pool to close puts
    the saved count back. A silent no-op when the BLAS exposes no known
    symbol.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._open = 0
        self._saved: int | None = None

    def acquire(self) -> None:
        with self._lock:
            self._open += 1
            if self._open > 1:
                return
            get, set_ = _openblas("get_num_threads"), _openblas("set_num_threads")
            if get is not None and set_ is not None:
                self._saved = get()
                set_(1)

    def release(self) -> None:
        with self._lock:
            self._open -= 1
            if self._open == 0 and self._saved is not None:
                _openblas("set_num_threads")(self._saved)
                self._saved = None


_BLAS_CAP = _BlasCap()


def suggest_chunksize(n_tasks: int, workers: int) -> int:
    """Static chunk-size heuristic: ``ceil(n / (workers * 4))``.

    The same shape as :mod:`multiprocessing.Pool`'s internal default —
    four chunks per worker keeps the pool load-balanced while cutting the
    number of IPC round-trips from ``n`` to roughly ``4 * workers``.
    """
    check_positive_int("workers", workers)
    if n_tasks <= 0:
        return 1
    return max(1, math.ceil(n_tasks / (workers * 4)))


class ChunkAutotuner:
    """Picks chunk sizes that amortize per-task dispatch (IPC) overhead.

    Before any observation it falls back to :func:`suggest_chunksize`.
    After :meth:`observe` has seen at least one map it knows the mean
    per-task seconds and chooses the smallest chunk for which the modeled
    per-chunk dispatch cost (:attr:`IPC_COST_S`) stays below
    :attr:`TARGET_OVERHEAD` of the chunk's compute time — capped at
    ``ceil(n / workers)`` so every worker still receives work.

    **Straggler feedback (the obs → autotuner loop).** Mean per-task cost
    says nothing about *dispersion*: a workload whose p99 task latency is
    10x its p50 (injected stragglers, noisy neighbours) wants *small*
    chunks, because a big chunk welds fast tasks to a slow one and the
    whole map waits on that chunk. :meth:`observe_quantiles` (or
    :meth:`observe_histogram`, fed straight from the metrics registry's
    ``task_latency`` histogram) folds the observed p99/p50 ratio into a
    smoothed dispersion factor that divides the chosen chunk size —
    uniform workloads (ratio ≈ 1) keep the IPC-amortizing chunks, skewed
    ones shrink toward chunk 1 so the pool's dynamic scheduling can route
    around the slow tasks. Chunking is transport-only, so the adapted
    chunk size never changes prices (benchmark F16 asserts bitwise
    equality while measuring the wall-clock win).

    Deliberately deterministic given its observation history: the same
    sequence of observations always yields the same chunk sizes.
    """

    #: p99/p50 ratios are clamped here so one pathological straggler
    #: cannot collapse chunking forever (2 decades of skew is plenty).
    DISPERSION_CAP = 16.0
    #: Modeled dispatch (IPC) cost of one chunk, in seconds.
    IPC_COST_S = 2e-4
    #: Largest share of a chunk's compute its dispatch cost may take.
    TARGET_OVERHEAD = 0.05
    #: Weight of the newest observation in the smoothed estimates.
    SMOOTHING = 0.5

    def __init__(self, workers: int):
        self.workers = check_positive_int("workers", workers)
        self._per_task_s: float | None = None
        self._dispersion = 1.0

    @property
    def dispersion(self) -> float:
        """Smoothed p99/p50 latency ratio (1.0 = uniform workload)."""
        return self._dispersion

    def chunksize(self, n_tasks: int) -> int:
        """Chunk size for a map over ``n_tasks`` tasks."""
        if n_tasks <= 1:
            return 1
        base = suggest_chunksize(n_tasks, self.workers)
        if self._per_task_s and self._per_task_s > 0.0:
            # Smallest chunk whose dispatch cost is < target_overhead of
            # its compute: ipc <= overhead * chunk * per_task.
            amortized = math.ceil(
                self.IPC_COST_S / (self._per_task_s * self.TARGET_OVERHEAD)
            )
            balance_cap = max(1, math.ceil(n_tasks / self.workers))
            chunk = int(min(max(base, amortized), balance_cap))
        else:
            chunk = base
        if self._dispersion > 1.0:
            chunk = max(1, int(chunk / self._dispersion))
        return chunk

    def observe(self, n_tasks: int, wall_seconds: float) -> None:
        """Feed back one completed map's size and wall-clock seconds."""
        if n_tasks <= 0 or wall_seconds <= 0.0:
            return
        sample = wall_seconds / n_tasks
        if self._per_task_s is None:
            self._per_task_s = sample
        else:
            s = self.SMOOTHING
            self._per_task_s = (1.0 - s) * self._per_task_s + s * sample

    def observe_quantiles(self, p50: float, p99: float) -> None:
        """Feed back observed per-task latency quantiles.

        The p99/p50 ratio (clamped to ``[1, DISPERSION_CAP]``) is folded
        into the smoothed dispersion factor that divides future chunk
        sizes. Non-positive quantiles are ignored (empty histogram).
        """
        if p50 <= 0.0 or p99 <= 0.0:
            return
        raw = max(1.0, min(p99 / p50, self.DISPERSION_CAP))
        s = self.SMOOTHING
        self._dispersion = (1.0 - s) * self._dispersion + s * raw

    def observe_histogram(self, histogram) -> None:
        """Feed back a latency :class:`~repro.obs.metrics.Histogram`
        (typically the registry's ``task_latency`` for this backend)."""
        if getattr(histogram, "count", 0) <= 0:
            return
        self.observe_quantiles(histogram.quantile(0.5),
                               histogram.quantile(0.99))


class _ChunkCall:
    """Picklable wrapper running a worker over one chunk of tasks.

    One pickle/IPC round-trip then moves ``len(chunk)`` tasks instead of
    one — the transport saving behind ``map(..., chunksize=)``.
    """

    __slots__ = ("worker",)

    def __init__(self, worker: Callable):
        self.worker = worker

    def __call__(self, chunk):
        return [self.worker(task) for task in chunk]


#: In a pool worker: the scope of the newest map it has run a task of.
_worker_scope: DrawScope | None = None


class _ScopedCall:
    """Runs each task with its map's draw scope active. Pickled, it
    carries only the token; a pool worker binds its own scope for it."""

    __slots__ = ("worker", "scope")

    def __init__(self, worker: Callable, scope: DrawScope):
        self.worker = worker
        self.scope = scope

    def __reduce__(self):
        return _worker_call, (self.worker, self.scope.token)

    def __call__(self, task):
        with draw_scope(self.scope):
            return self.worker(task)


def _worker_call(worker: Callable, token) -> _ScopedCall:
    global _worker_scope
    if _worker_scope is None or _worker_scope.token != token:
        _worker_scope = DrawScope(token)
    return _ScopedCall(worker, _worker_scope)


class _TimedCall:
    """Picklable worker wrapper measuring each task on the worker's clock.

    Returns ``(result, index, t0, t1, pid, thread_ident)`` so the backend
    can rebuild rank order, attribute the span to a worker track, and
    observe the latency — without a second pass over the pool.
    """

    __slots__ = ("worker",)

    def __init__(self, worker: Callable):
        self.worker = worker

    def __call__(self, item):
        idx, task = item
        t0 = time.perf_counter()
        result = self.worker(task)
        t1 = time.perf_counter()
        return result, idx, t0, t1, os.getpid(), threading.get_ident()


class TaskHandle:
    """One submitted task: poll :attr:`done`, collect with :meth:`result`.

    The minimal future the scheduler layer needs — a future ``ClusterBackend``
    (ROADMAP item 5) only has to produce objects with this surface. Worker
    exceptions are captured and re-raised from :meth:`result`, matching
    ``map``'s propagation semantics.
    """

    __slots__ = ("_result", "_error", "_done")

    def __init__(self):
        self._result = None
        self._error: BaseException | None = None
        self._done = False

    def _finish(self, result=None, error: BaseException | None = None) -> None:
        self._result = result
        self._error = error
        self._done = True

    @property
    def done(self) -> bool:
        return self._done

    def result(self):
        if not self._done:
            raise BackendError("task has not completed; wait on "
                               "as_completed() before collecting")
        if self._error is not None:
            raise self._error
        return self._result


class _FutureHandle(TaskHandle):
    """Thread-backend handle wrapping a ``concurrent.futures.Future``."""

    __slots__ = ("_future",)

    def __init__(self, future):
        super().__init__()
        self._future = future

    @property
    def done(self) -> bool:
        return self._future.done()

    def result(self):
        return self._future.result()


class ExecutionBackend(abc.ABC):
    """Maps a worker over rank tasks, preserving rank order.

    Lifecycle contract (held by every subclass and asserted in tests):
    ``close()`` is idempotent, the backend is a reusable-until-closed
    context manager, and :meth:`map` after :meth:`close` raises
    :class:`BackendError` instead of silently recreating pools.

    Subclasses implement :meth:`_run_map` (the raw pool mapping);
    :meth:`map` adds the open-check and, when a tracer or metrics registry
    is attached, the per-task instrumentation.

    Beside the bulk :meth:`map`, every backend exposes two scheduling
    primitives — :meth:`submit` (one task, returns a :class:`TaskHandle`)
    and :meth:`as_completed` (yield handles in completion order) — which
    is all :class:`~repro.parallel.sched.WorkStealingScheduler` needs to
    steal for real. Handles submitted on a backend should be drained via
    ``as_completed`` before the backend is closed.
    """

    name: str = "backend"
    _closed: bool = False
    tracer = None
    metrics = None

    @abc.abstractmethod
    def _run_map(self, worker: Callable, tasks: Sequence) -> list:
        """Run ``worker(task)`` for every task; results in input order."""

    def map(self, worker: Callable, tasks: Sequence, *,
            chunksize: int | str | None = None) -> list:
        """Run ``worker(task)`` for every task; results in input order.

        ``chunksize`` batches consecutive tasks into one IPC round-trip
        each: ``None``/``1`` sends one task per message (on every backend
        — the process pool is never left to re-chunk on its own), an
        integer fixes the chunk length, and ``"auto"`` uses
        :func:`suggest_chunksize` for this backend's worker count. Results
        are identical (same values, same order) for every chunk size —
        chunking only changes the transport, never the arithmetic.

        A map of two or more tasks is one draw scope (see the module
        docstring); a map run inside a scope joins it.
        """
        self._check_open()
        tasks = list(tasks)
        scope = task_scope(len(tasks))
        if scope is not None:
            worker = _ScopedCall(worker, scope)
        cs = self._resolve_chunksize(chunksize, len(tasks))
        if cs > 1:
            chunks = [tasks[i:i + cs] for i in range(0, len(tasks), cs)]
            nested = self._dispatch_map(_ChunkCall(worker), chunks)
            return [result for chunk in nested for result in chunk]
        return self._dispatch_map(worker, tasks)

    def submit(self, worker: Callable, task) -> TaskHandle:
        """Run one task, returning a :class:`TaskHandle`.

        The base implementation executes eagerly in the caller's thread
        (the serial semantics); pooled backends override it to dispatch
        asynchronously. Worker exceptions are captured on the handle and
        re-raised from ``result()``.
        """
        self._check_open()
        handle = TaskHandle()
        try:
            handle._finish(result=worker(task))
        except Exception as exc:
            handle._finish(error=exc)
        return handle

    def as_completed(self, handles: Sequence[TaskHandle]):
        """Yield the given handles as they complete.

        Eager backends complete at submit time, so the base implementation
        yields in submission order — which makes the serial work-stealing
        schedule deterministic by construction.
        """
        yield from handles

    def _resolve_chunksize(self, chunksize, n_tasks: int) -> int:
        if chunksize is None:
            return 1
        if chunksize == "auto":
            return suggest_chunksize(n_tasks, getattr(self, "max_workers", 1))
        cs = check_positive_int("chunksize", chunksize)
        return min(cs, max(1, n_tasks))

    def _dispatch_map(self, worker: Callable, tasks: Sequence) -> list:
        if not (self.tracer or self.metrics is not None):
            return self._run_map(worker, tasks)
        return self._instrumented_map(worker, tasks)

    def _instrumented_map(self, worker: Callable, tasks: Sequence) -> list:
        items = list(enumerate(tasks))
        tracer = self.tracer
        if tracer:
            with tracer.span(f"{self.name}.map", n_tasks=len(items)):
                outs = self._run_map(_TimedCall(worker), items)
        else:
            outs = self._run_map(_TimedCall(worker), items)
        hist = (self.metrics.histogram("task_latency", backend=self.name)
                if self.metrics is not None else None)
        workers: dict[tuple, int] = {}
        results: list = [None] * len(outs)
        for result, idx, t0, t1, pid, ident in outs:
            wid = workers.setdefault((pid, ident), len(workers))
            if tracer:
                tracer.add_span("task", t0, t1, track=f"worker{wid}",
                                rank_task=idx)
            if hist is not None:
                hist.observe(t1 - t0)
            results[idx] = result
        return results

    def close(self) -> None:
        """Release pooled resources (idempotent)."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise BackendError(f"{self.name} backend is closed")

    def __enter__(self) -> "ExecutionBackend":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class SerialBackend(ExecutionBackend):
    """In-process sequential execution (the deterministic reference)."""

    name = "serial"

    def __init__(self, *, tracer=None):
        self.tracer = tracer

    def _run_map(self, worker: Callable, tasks: Sequence) -> list:
        return [worker(t) for t in tasks]


class ThreadBackend(ExecutionBackend):
    """Thread-pool execution; effective where NumPy drops the GIL."""

    name = "thread"

    def __init__(self, max_workers: int | None = None, *, tracer=None):
        workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        self.max_workers = check_positive_int("max_workers", workers)
        self.tracer = tracer
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            _BLAS_CAP.acquire()
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _run_map(self, worker: Callable, tasks: Sequence) -> list:
        return list(self._ensure_pool().map(worker, tasks))

    def submit(self, worker: Callable, task) -> TaskHandle:
        self._check_open()
        return _FutureHandle(self._ensure_pool().submit(worker, task))

    def as_completed(self, handles: Sequence[TaskHandle]):
        mapping = {h._future: h for h in handles}
        for future in _futures_as_completed(mapping):
            yield mapping[future]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            _BLAS_CAP.release()
        super().close()


class ProcessBackend(ExecutionBackend):
    """Fork-based process pool (true multi-core when cores exist).

    Workers and tasks must be picklable; pools are created lazily and
    reused across :meth:`map` calls. If a ``map`` raises, the pool is
    marked broken and :meth:`close` terminates the workers instead of
    joining them, so a crashed map never leaks child processes.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None, *, tracer=None,
                 shm_min_bytes: int | None = None):
        workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        self.max_workers = check_positive_int("max_workers", workers)
        self.tracer = tracer
        #: When set, any contiguous ndarray of at least this many bytes in
        #: a task payload rides to the workers through a POSIX shared-memory
        #: segment (one memcpy) instead of the pool's pickle pipe (serialize
        #: + chunked pipe writes + deserialize). Segments are unlinked
        #: before :meth:`map` returns — nothing survives in /dev/shm.
        self.shm_min_bytes = (None if shm_min_bytes is None
                              else check_positive_int("shm_min_bytes",
                                                      shm_min_bytes))
        #: Names of the segments created by the most recent shm-packed map
        #: (all unlinked by then) — observability for tests and metrics.
        self.last_shm_segments: tuple[str, ...] = ()
        self._pool = None
        self._broken = False
        #: Completion queue feeding :meth:`as_completed`; the pool's
        #: result-handler thread pushes handles here from the callbacks.
        self._done_q: queue.SimpleQueue = queue.SimpleQueue()

    def map(self, worker: Callable, tasks: Sequence, *,
            chunksize: int | str | None = None) -> list:
        if self.shm_min_bytes is None:
            return super().map(worker, tasks, chunksize=chunksize)
        self._check_open()
        from repro.parallel.shm import ShmSession, ShmWorker

        session = ShmSession(min_bytes=self.shm_min_bytes)
        try:
            packed = [session.pack(task) for task in tasks]
            self.last_shm_segments = session.segment_names
            if not session.segment_names:  # nothing big enough: plain path
                return super().map(worker, tasks, chunksize=chunksize)
            if self.metrics is not None:
                self.metrics.counter("shm_segments", backend=self.name).inc(
                    len(session.segment_names))
                self.metrics.counter("shm_bytes", backend=self.name).inc(
                    session.total_bytes)
            return super().map(ShmWorker(worker), packed, chunksize=chunksize)
        finally:
            # pool.map is synchronous: the workers are done with the
            # segments by the time we get here, so close + unlink cannot
            # race a reader.
            session.close()

    def submit(self, worker: Callable, task) -> TaskHandle:
        """Dispatch one picklable task asynchronously.

        Bypasses the shared-memory transport (steal-scheduled rank tasks
        are small task descriptions, not bulk arrays). Pool failures are
        wrapped in :class:`BackendError` on the handle, matching ``map``.
        """
        self._check_open()
        pool = self._ensure_pool()
        handle = TaskHandle()

        def _ok(value, handle=handle):
            handle._finish(result=value)
            self._done_q.put(handle)

        def _err(exc, handle=handle):
            self._broken = True
            wrapped = BackendError(f"process pool execution failed: {exc}")
            wrapped.__cause__ = exc
            handle._finish(error=wrapped)
            self._done_q.put(handle)

        pool.apply_async(worker, (task,), callback=_ok, error_callback=_err)
        return handle

    def as_completed(self, handles: Sequence[TaskHandle]):
        pending = {id(h): h for h in handles}
        for h in list(pending.values()):
            if h.done:
                del pending[id(h)]
                yield h
        while pending:
            h = self._done_q.get()
            # Entries for handles already yielded from the done-check (or
            # from an earlier, abandoned iterator) are stale: skip them.
            if id(h) in pending:
                del pending[id(h)]
                yield h

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing as mp

            try:
                ctx = mp.get_context("fork")
            except ValueError as exc:  # pragma: no cover - non-POSIX
                raise BackendError("ProcessBackend requires a fork-capable platform") from exc
            _BLAS_CAP.acquire()  # before the fork: the workers inherit it
            try:
                self._pool = ctx.Pool(processes=self.max_workers)
            except BaseException:
                _BLAS_CAP.release()
                raise
            self._broken = False
        return self._pool

    def _run_map(self, worker: Callable, tasks: Sequence) -> list:
        pool = self._ensure_pool()
        try:
            # One task per message: ``map`` has already grouped the tasks
            # into the chunks the caller asked for, and the pool's default
            # would silently re-chunk them by len / (4 * workers).
            return pool.map(worker, list(tasks), chunksize=1)
        except Exception as exc:
            self._broken = True
            raise BackendError(f"process pool execution failed: {exc}") from exc

    def close(self) -> None:
        if self._pool is not None:
            if self._broken:
                self._pool.terminate()
            else:
                self._pool.close()
            self._pool.join()
            self._pool = None
            _BLAS_CAP.release()
        super().close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def make_backend(name: str, max_workers: int | None = None, *,
                 tracer=None) -> ExecutionBackend:
    """Factory: ``"serial"`` | ``"thread"`` | ``"process"``."""
    if name == "serial":
        return SerialBackend(tracer=tracer)
    if name == "thread":
        return ThreadBackend(max_workers, tracer=tracer)
    if name == "process":
        return ProcessBackend(max_workers, tracer=tracer)
    raise ValidationError(f"unknown backend {name!r}")

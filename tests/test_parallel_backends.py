"""Execution backends: order preservation, result equality, resource cleanup."""

import os
import time

import pytest

from repro.errors import ValidationError
from repro.parallel import ProcessBackend, SerialBackend, ThreadBackend
from repro.parallel.backends import make_backend


def _square(x):
    return x * x


def _raise(_):
    raise RuntimeError("worker exploded")


def _pid_after_nap(i):
    if i == 0:
        time.sleep(0.2)
    return os.getpid()


class TestSerial:
    def test_maps_in_order(self):
        assert SerialBackend().map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_empty(self):
        assert SerialBackend().map(_square, []) == []


class TestThread:
    def test_maps_in_order(self):
        backend = ThreadBackend(4)
        try:
            assert backend.map(_square, list(range(20))) == [i * i for i in range(20)]
        finally:
            backend.close()

    def test_pool_reused_across_maps(self):
        backend = ThreadBackend(2)
        try:
            a = backend.map(_square, [1, 2])
            b = backend.map(_square, [3, 4])
            assert a == [1, 4] and b == [9, 16]
        finally:
            backend.close()

    def test_close_idempotent(self):
        backend = ThreadBackend(1)
        backend.map(_square, [1])
        backend.close()
        backend.close()

    def test_worker_count_validated(self):
        with pytest.raises(ValidationError):
            ThreadBackend(0)


@pytest.mark.skipif(os.name != "posix", reason="fork backend is POSIX-only")
class TestProcess:
    def test_maps_in_order(self):
        backend = ProcessBackend(2)
        try:
            assert backend.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
        finally:
            backend.close()

    def test_unchunked_map_sends_one_task_per_message(self):
        """``chunksize=None`` means what ``map`` documents: the pool may
        not weld task 1 to a sleeping task 0 in a hidden chunk of its own
        (``len / (4 * workers)`` would make that chunk two tasks long)."""
        with ProcessBackend(2) as backend:
            backend.map(_square, [0, 1])  # both workers forked and idle
            pids = backend.map(_pid_after_nap, list(range(12)))
        assert pids[1] != pids[0]

    def test_worker_exception_wrapped(self):
        from repro.errors import BackendError

        backend = ProcessBackend(1)
        try:
            with pytest.raises(BackendError):
                backend.map(_raise, [1])
        finally:
            backend.close()


class TestEquivalence:
    def test_all_backends_same_results(self):
        tasks = list(range(17))
        expected = [t * t for t in tasks]
        backends = [SerialBackend(), ThreadBackend(3), ProcessBackend(2)]
        try:
            for b in backends:
                assert b.map(_square, tasks) == expected, b.name
        finally:
            for b in backends:
                b.close()


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("serial", SerialBackend),
        ("thread", ThreadBackend),
        ("process", ProcessBackend),
    ])
    def test_factory_dispatch(self, name, cls):
        b = make_backend(name, 1)
        assert isinstance(b, cls)
        b.close()

    def test_unknown_backend(self):
        with pytest.raises(ValidationError):
            make_backend("gpu")


class TestLifecycle:
    """close() is idempotent, backends are context managers, and a closed
    backend refuses to map."""

    @pytest.mark.parametrize("factory", [
        SerialBackend,
        lambda: ThreadBackend(2),
        lambda: ProcessBackend(2),
    ])
    def test_context_manager_maps_then_closes(self, factory):
        with factory() as backend:
            assert backend.map(_square, [2, 3]) == [4, 9]
            assert not backend.closed
        assert backend.closed

    @pytest.mark.parametrize("factory", [
        SerialBackend,
        lambda: ThreadBackend(1),
        lambda: ProcessBackend(1),
    ])
    def test_map_after_close_raises(self, factory):
        from repro.errors import BackendError

        backend = factory()
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(BackendError, match="closed"):
            backend.map(_square, [1])

    def test_reentering_closed_backend_raises(self):
        from repro.errors import BackendError

        backend = SerialBackend()
        backend.close()
        with pytest.raises(BackendError):
            with backend:
                pass

    @pytest.mark.skipif(os.name != "posix", reason="fork backend is POSIX-only")
    def test_process_backend_leaks_no_workers_after_crashed_map(self):
        import multiprocessing

        from repro.errors import BackendError

        before = {p.pid for p in multiprocessing.active_children()}
        backend = ProcessBackend(2)
        with pytest.raises(BackendError):
            backend.map(_raise, [1, 2])
        backend.close()  # must terminate, not hang, after the crash
        backend.close()
        leaked = [
            p for p in multiprocessing.active_children()
            if p.pid not in before
        ]
        for p in leaked:
            p.join(timeout=5)
        leaked = [
            p for p in multiprocessing.active_children()
            if p.pid not in before
        ]
        assert leaked == []


class TestChunkedMap:
    """chunksize is a transport knob: results must be bitwise identical for
    every chunking on every backend — including under fault injection."""

    TASKS = list(range(23))

    @pytest.mark.parametrize("factory", [
        SerialBackend,
        lambda: ThreadBackend(3),
        lambda: ProcessBackend(2),
    ], ids=["serial", "thread", "process"])
    @pytest.mark.parametrize("chunksize", [None, 1, 7, "auto", 23, 100])
    def test_chunking_invariant_on_every_backend(self, factory, chunksize):
        with factory() as backend:
            got = backend.map(_square, self.TASKS, chunksize=chunksize)
        assert got == [t * t for t in self.TASKS]

    def test_chunked_empty_and_singleton(self):
        backend = SerialBackend()
        assert backend.map(_square, [], chunksize=7) == []
        assert backend.map(_square, [3], chunksize=7) == [9]

    def test_invalid_chunksize_rejected(self):
        backend = SerialBackend()
        with pytest.raises(ValidationError):
            backend.map(_square, [1], chunksize=0)
        with pytest.raises(ValidationError):
            backend.map(_square, [1], chunksize="huge")

    def test_mc_price_bitwise_invariant_to_chunksize(self):
        from repro.engine import ParallelMCPricer
        from repro.workloads import basket_workload

        w = basket_workload(2)
        bits = set()
        for chunksize in (None, 1, 2, "auto"):
            with ThreadBackend(2) as backend:
                pricer = ParallelMCPricer(4_000, seed=3, backend=backend,
                                          chunksize=chunksize)
                res = pricer.price(w.model, w.payoff, w.expiry, 4)
            bits.add(res.price)
        assert len(bits) == 1

    def test_faulted_retry_with_chunking_matches_fault_free(self):
        from repro.engine import ParallelMCPricer
        from repro.parallel import FaultEvent, FaultKind, FaultPlan
        from repro.workloads import basket_workload

        w = basket_workload(2)
        with SerialBackend() as backend:
            ref = ParallelMCPricer(4_000, seed=3, backend=backend).price(
                w.model, w.payoff, w.expiry, 4)
        plan = FaultPlan(events=(FaultEvent(1, FaultKind.CRASH),))
        for chunksize in (1, 2, "auto"):
            with ThreadBackend(2) as backend:
                res = ParallelMCPricer(4_000, seed=3, backend=backend,
                                       faults=plan, policy="retry",
                                       chunksize=chunksize).price(
                    w.model, w.payoff, w.expiry, 4)
            assert res.price == ref.price, chunksize

    def test_instrumented_chunked_map_counts_chunks(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        backend = ThreadBackend(2)
        backend.metrics = metrics
        try:
            backend.map(_square, list(range(10)), chunksize=5)
        finally:
            backend.close()
        # Two chunks of five → the per-dispatch instrumentation sees two
        # timed units (a "task" span/latency now covers one chunk).
        assert metrics.histogram("task_latency", backend="thread").count == 2


class TestChunkHeuristics:
    def test_suggest_chunksize_bounds(self):
        from repro.parallel import suggest_chunksize

        assert suggest_chunksize(0, 4) == 1
        assert suggest_chunksize(1, 4) == 1
        assert suggest_chunksize(64, 4) == 4   # 64 / (4 workers × 4 over)
        assert suggest_chunksize(1000, 1) == 250
        with pytest.raises(ValidationError):
            suggest_chunksize(8, 0)

    def test_autotuner_static_before_observation(self):
        from repro.parallel import ChunkAutotuner, suggest_chunksize

        tuner = ChunkAutotuner(4)
        assert tuner.chunksize(64) == suggest_chunksize(64, 4)

    def test_autotuner_grows_chunks_for_cheap_tasks(self):
        from repro.parallel import ChunkAutotuner

        tuner = ChunkAutotuner(4)
        tuner.observe(100, 0.001)  # 10 µs/task → IPC dominates
        cheap = tuner.chunksize(100)
        tuner2 = ChunkAutotuner(4)
        tuner2.observe(100, 10.0)  # 100 ms/task → IPC negligible
        assert cheap > tuner2.chunksize(100)

    def test_autotuner_never_starves_workers(self):
        from repro.parallel import ChunkAutotuner

        tuner = ChunkAutotuner(4)
        tuner.observe(100, 1e-7)  # absurdly cheap → wants huge chunks
        # Still at most ceil(n/workers): every worker gets work.
        assert tuner.chunksize(100) <= 25
        assert tuner.chunksize(3) == 1  # ceil(3/4): every worker busy

    def test_autotuner_dispersion_shrinks_chunks(self):
        from repro.parallel import ChunkAutotuner, suggest_chunksize

        tuner = ChunkAutotuner(4)
        base = suggest_chunksize(64, 4)
        assert tuner.dispersion == 1.0
        tuner.observe_quantiles(0.01, 0.08)  # p99 = 8x p50: stragglers
        assert tuner.dispersion == pytest.approx(4.5)  # halfway from 1 to 8
        assert tuner.chunksize(64) == max(1, int(base / 4.5))
        assert tuner.chunksize(64) < base
        # Uniform latency pulls the dispersion back toward 1.
        tuner.observe_quantiles(0.01, 0.01)
        assert tuner.dispersion == pytest.approx(2.75)

    def test_autotuner_dispersion_is_capped_and_ignores_empty(self):
        from repro.obs import Histogram
        from repro.parallel import ChunkAutotuner

        tuner = ChunkAutotuner(4)
        tuner.observe_quantiles(1e-6, 10.0)  # absurd ratio → clamp
        assert tuner.dispersion == (1.0 + ChunkAutotuner.DISPERSION_CAP) / 2
        assert tuner.chunksize(64) >= 1
        before = tuner.dispersion
        tuner.observe_histogram(Histogram())   # empty: no-op
        tuner.observe_quantiles(0.0, 1.0)      # non-positive: no-op
        assert tuner.dispersion == before

    def test_autotuner_histogram_feedback_matches_quantiles(self):
        from repro.obs import Histogram
        from repro.parallel import ChunkAutotuner

        hist = Histogram()
        for _ in range(95):
            hist.observe(0.01)
        for _ in range(5):
            hist.observe(0.16)
        by_hist = ChunkAutotuner(4)
        by_hist.observe_histogram(hist)
        by_q = ChunkAutotuner(4)
        by_q.observe_quantiles(hist.quantile(0.5), hist.quantile(0.99))
        assert by_hist.dispersion == by_q.dispersion > 1.0


class TestCrossBackendDeterminism:
    """The paper's speedup claims require every backend to compute the same
    answer: MC prices must be *bitwise* identical across serial, thread and
    process execution — and stay identical when the retry path replays a
    rank (guarding against RNG substream double-consumption)."""

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.workloads import basket_workload

        return basket_workload(3)

    def _mc_price(self, w, backend, **kwargs):
        from repro.engine import ParallelMCPricer

        pricer = ParallelMCPricer(6_000, seed=13, backend=backend, **kwargs)
        return pricer.price(w.model, w.payoff, w.expiry, 4)

    def test_mc_price_bitwise_identical_across_backends(self, workload):
        with SerialBackend() as serial:
            ref = self._mc_price(workload, serial)
        for factory in (lambda: ThreadBackend(2), lambda: ProcessBackend(2)):
            with factory() as backend:
                res = self._mc_price(workload, backend)
            assert res.price == ref.price, backend.name
            assert res.stderr == ref.stderr, backend.name

    def test_retry_path_matches_fault_free_on_all_backends(self, workload):
        from repro.parallel import FaultEvent, FaultKind, FaultPlan

        with SerialBackend() as serial:
            ref = self._mc_price(workload, serial)
        plan = FaultPlan(events=(FaultEvent(0, FaultKind.CRASH),
                                 FaultEvent(3, FaultKind.CORRUPT)))
        for factory in (SerialBackend, lambda: ThreadBackend(2),
                        lambda: ProcessBackend(2)):
            with factory() as backend:
                res = self._mc_price(workload, backend, faults=plan,
                                     policy="retry")
            assert res.price == ref.price, backend.name

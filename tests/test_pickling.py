"""Pickle round-trip contracts.

The fork-process backend ships (technique, model, payoff, generator) tuples
through pickle; any unpicklable object breaks real parallel execution.
These tests pin the contract for every class that crosses the process
boundary, and check behavioural equivalence (same numbers after the trip),
not just successful serialization.
"""

import pickle

import numpy as np
import pytest

from repro.market import HestonModel, MertonJumpDiffusion
from repro.mc import (
    Antithetic,
    ControlVariate,
    DirectSampling,
    ImportanceSampling,
    PlainMC,
    QMCSobol,
    Stratified,
)
from repro.payoffs import (
    AsianArithmeticCall,
    BarrierOption,
    BasketCall,
    Call,
    CallOnMax,
    GeometricBasketCall,
    PowerCall,
    SpreadCall,
)
from repro.rng import HaltonSequence, Lcg64, Philox4x32, SobolSequence


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestGenerators:
    @pytest.mark.parametrize("gen_cls", [Lcg64, Philox4x32])
    def test_stream_position_preserved(self, gen_cls):
        g = gen_cls(42)
        g.random_raw(123)  # advance mid-stream
        clone = roundtrip(g)
        assert np.array_equal(g.random_raw(50), clone.random_raw(50))

    def test_sobol_position_preserved(self):
        s = SobolSequence(5, scramble=True, seed=3)
        s.next(17)
        clone = roundtrip(s)
        assert np.allclose(s.next(9), clone.next(9))

    def test_halton_position_preserved(self):
        h = HaltonSequence(4, scramble=True, seed=3)
        h.next(11)
        clone = roundtrip(h)
        assert np.allclose(h.next(7), clone.next(7))


class TestModels:
    def test_gbm(self, model_4d):
        clone = roundtrip(model_4d)
        a = model_4d.sample_terminal(Philox4x32(1), 100, 1.0)
        b = clone.sample_terminal(Philox4x32(1), 100, 1.0)
        assert np.array_equal(a, b)

    def test_merton(self):
        m = MertonJumpDiffusion(100, 0.2, 0.05, 1.0, -0.1, 0.15)
        clone = roundtrip(m)
        a = m.sample_terminal(Philox4x32(2), 100, 1.0)
        b = clone.sample_terminal(Philox4x32(2), 100, 1.0)
        assert np.array_equal(a, b)

    def test_heston(self):
        m = HestonModel(100, 0.04, 1.5, 0.06, 0.5, -0.7, 0.03, sampling_steps=20)
        clone = roundtrip(m)
        a = m.sample_terminal(Philox4x32(3), 50, 1.0)
        b = clone.sample_terminal(Philox4x32(3), 50, 1.0)
        assert np.array_equal(a, b)


class TestPayoffs:
    @pytest.mark.parametrize("payoff", [
        Call(100.0),
        BasketCall([0.25] * 4, 100.0),
        GeometricBasketCall([0.5, 0.5], 90.0),
        CallOnMax(100.0),
        SpreadCall(5.0),
        PowerCall(10_000.0, 2.0),
    ])
    def test_terminal_payoffs(self, payoff):
        clone = roundtrip(payoff)
        prices = 80.0 + 40.0 * np.random.default_rng(0).random((50, payoff.dim))
        assert np.array_equal(payoff.terminal(prices), clone.terminal(prices))

    @pytest.mark.parametrize("payoff", [
        AsianArithmeticCall(100.0),
        BarrierOption("up-and-out", "call", 100.0, 130.0),
    ])
    def test_path_payoffs(self, payoff):
        clone = roundtrip(payoff)
        paths = 80.0 + 40.0 * np.random.default_rng(1).random((20, 6, payoff.dim))
        assert np.array_equal(payoff.path(paths), clone.path(paths))


class TestTechniques:
    @pytest.mark.parametrize("technique", [
        PlainMC(),
        Antithetic(),
        Stratified(8),
        QMCSobol(4),
        DirectSampling(),
        ImportanceSampling(np.array([1.0])),
        ControlVariate(Call(100.0), 10.45),
    ])
    def test_partial_equivalence_after_roundtrip(self, technique, model_1d):
        clone = roundtrip(technique)
        kwargs = {}
        n = 800
        a = technique.partial(model_1d, Call(100.0), 1.0, n, Philox4x32(5), **kwargs)
        b = clone.partial(model_1d, Call(100.0), 1.0, n, Philox4x32(5), **kwargs)
        pa = technique.finalize(technique.combine([a]))
        pb = clone.finalize(clone.combine([b]))
        assert pa[0] == pb[0]


class TestServeDataclasses:
    """The serve layer's value objects cross the process boundary too:
    requests travel inside batch tasks, quotes come back, cache entries
    may be shipped to warm a remote cache."""

    def _request(self):
        from repro.serve import PricingRequest
        from repro.workloads.generators import basket_workload

        return PricingRequest(basket_workload(2), engine="mc",
                              n_paths=1_000, seed=7, p=2, name="desk")

    def test_pricing_request_roundtrip_preserves_key(self):
        from repro.serve import request_key

        r = self._request()
        clone = roundtrip(r)
        # Model/payoff equality is behavioral in this repo, so compare the
        # canonical key (covers the full contract description) + settings.
        assert request_key(clone) == request_key(r)
        assert clone.settings() == r.settings()
        assert (clone.engine, clone.name) == (r.engine, r.name)

    def test_quote_roundtrip(self):
        from repro.serve import PriceQuote

        quote = PriceQuote(engine="mc", price=1.5, stderr=0.01, sim_time=0.2)
        assert roundtrip(quote) == quote

    def test_shared_array_ref_handle_is_small(self):
        """The whole point of the shm transport: the pickled *handle* stays
        tiny no matter how large the backing array is."""
        from repro.parallel import ShmSession

        big = np.zeros((512, 512))  # 2 MiB backing payload
        with ShmSession(min_bytes=1024) as session:
            ref = session.share(big)
            blob = pickle.dumps(ref)
            assert len(blob) < 512
            clone = pickle.loads(blob)
            assert np.array_equal(clone.load(), big)


class TestShmLifecycle:
    """No leaked /dev/shm segments — the transport must clean up even
    though worker processes attach to the segments by name."""

    @staticmethod
    def _dev_shm():
        import os

        return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()

    def test_session_close_unlinks_segments(self):
        from multiprocessing import shared_memory

        from repro.parallel import ShmSession

        before = self._dev_shm()
        session = ShmSession(min_bytes=16)
        session.share(np.arange(100.0))
        names = session.segment_names
        assert names
        session.close()
        session.close()  # idempotent
        assert self._dev_shm() <= before
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_process_map_leaves_no_segments(self):
        from repro.parallel import ProcessBackend
        from repro.payoffs import BasketCall
        from repro.serve import revalue_scenarios

        before = self._dev_shm()
        scen = 80.0 + 40.0 * np.random.default_rng(0).random((2_000, 3))
        with ProcessBackend(2, shm_min_bytes=1024) as backend:
            revalue_scenarios([BasketCall([1 / 3] * 3, 100.0)], scen,
                              backend=backend, chunksize=1)
            names = backend.last_shm_segments
            assert names  # the matrix really went through shared memory
        after = self._dev_shm()
        assert after <= before
        assert not any(n.lstrip("/") in after for n in names)


class TestWorkers:
    def test_portfolio_worker_roundtrip(self, model_1d):
        """The portfolio task farm's worker and its task tuple both cross
        the process boundary; the partial must be the same after the trip."""
        from repro.engine.portfolio import _contract_task

        task = (model_1d, Call(100.0), 1.0, 2_000, Philox4x32(5))
        worker = roundtrip(_contract_task)
        assert worker is _contract_task  # pickled by import path
        assert worker(roundtrip(task)) == _contract_task(task)


class TestEndToEnd:
    def test_process_backend_with_every_exotic_piece(self, model_4d):
        """The real integration claim: an exotic technique + multi-asset
        model + composite payoff priced through actual fork workers."""
        from repro.engine import ParallelMCPricer
        from repro.parallel import ProcessBackend, SerialBackend

        payoff = BasketCall([0.25] * 4, 100.0)
        serial = ParallelMCPricer(16_000, technique=Antithetic(), seed=9,
                                  backend=SerialBackend())
        backend = ProcessBackend(2)
        try:
            forked = ParallelMCPricer(16_000, technique=Antithetic(), seed=9,
                                      backend=backend)
            a = serial.price(model_4d, payoff, 1.0, 4)
            b = forked.price(model_4d, payoff, 1.0, 4)
            assert a.price == b.price
        finally:
            backend.close()

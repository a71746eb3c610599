"""Strip-equivalence tier: fused batch pricing must be *bitwise* single.

The contract under test (see ``repro.batch.kernels``): a fused strip run
shares only the **inputs** of each contract's arithmetic — the normal
block, the terminal-price matrix / path tensor, the lattice mesh — while
every per-contract operation runs in the single-run order. IEEE-754
arithmetic cannot observe input sharing, so every assertion here is on
equality of floats (``==``, i.e. bit identity for finite doubles), never
a tolerance. A tolerance would hide exactly the bugs this tier exists to
catch: reordered reductions, a shared buffer mutated by one contract,
technique state leaking across the strip.
"""

import numpy as np
import pytest

from repro.analytic import bs_price
from repro.batch import BatchPlan, ContractStrip, batch_key, plan_batches
from repro.batch.kernels import beg_strip_prices, strip_estimate, strip_partial
from repro.engine import ParallelLatticePricer, ParallelMCPricer
from repro.engine.registry import default_registry
from repro.engine.runner import run_engine, run_strip
from repro.errors import ValidationError
from repro.lattice import beg_price
from repro.market.gbm import MultiAssetGBM
from repro.mc.qmc import QMCSobol
from repro.mc.variance_reduction import (BATCH_PATHS, Antithetic, ControlVariate,
                                         PlainMC)
from repro.payoffs import AsianGeometricCall, Call, CallOnMax, Forward, Put
from repro.rng import Philox4x32
from repro.serve import (PriceCache, PricingRequest, PricingService,
                         price_request)
from repro.workloads import rainbow_workload, strike_strip

N_PATHS = 4_000
EXPIRY = 1.0


@pytest.fixture(scope="module")
def model1():
    return MultiAssetGBM.single(100.0, 0.2, 0.05)


@pytest.fixture(scope="module")
def payoffs1():
    return [Call(90.0), Call(100.0), Call(110.0), Put(100.0)]


def _technique(name):
    if name == "plain":
        return PlainMC()
    if name == "antithetic":
        return Antithetic()
    if name == "qmc":
        return QMCSobol(8, seed=5)
    # Fallback path: no fused form — per-contract runs on identically
    # seeded generator copies.
    mean = bs_price(100.0, 100.0, 0.2, 0.05, EXPIRY, option="call")
    return ControlVariate(Call(100.0), mean)


# ---------------------------------------------------------------------------
# Engine layer: run_strip vs run_engine
# ---------------------------------------------------------------------------


class TestMCStripEquivalence:
    @pytest.mark.parametrize("tech", ["plain", "antithetic", "qmc", "cv"])
    @pytest.mark.parametrize("p", [1, 3])
    def test_mc_strip_bitwise(self, model1, payoffs1, tech, p):
        if tech in ("antithetic", "qmc") and p == 3:
            p = 2  # these techniques need even per-rank path counts
        pricer = ParallelMCPricer(N_PATHS, seed=11, technique=_technique(tech))
        singles = [run_engine(pricer, model1, py, EXPIRY, p) for py in payoffs1]
        fused = run_strip(pricer, model1, payoffs1, EXPIRY, p)
        assert [r.price for r in fused] == [r.price for r in singles]
        assert [r.stderr for r in fused] == [r.stderr for r in singles]

    def test_path_dependent_strip_bitwise(self, model1):
        payoffs = [AsianGeometricCall(k) for k in (90.0, 100.0, 110.0)]
        pricer = ParallelMCPricer(N_PATHS, seed=3, steps=12)
        singles = [run_engine(pricer, model1, py, EXPIRY, 3) for py in payoffs]
        fused = run_strip(pricer, model1, payoffs, EXPIRY, 3)
        assert [r.price for r in fused] == [r.price for r in singles]

    def test_strip_meta_indexes_contracts(self, model1, payoffs1):
        pricer = ParallelMCPricer(N_PATHS, seed=11)
        fused = run_strip(pricer, model1, payoffs1, EXPIRY, 2)
        assert [r.meta["strip"]["index"] for r in fused] == [0, 1, 2, 3]
        assert all(r.meta["strip"]["contracts"] == 4 for r in fused)

    def test_mixed_path_dependence_rejected(self, model1):
        pricer = ParallelMCPricer(N_PATHS, seed=1, steps=12)
        with pytest.raises(ValidationError, match="homogeneous"):
            run_strip(pricer, model1,
                      [Call(100.0), AsianGeometricCall(100.0)], EXPIRY, 2)

    def test_strip_shares_one_draw(self, model1, payoffs1):
        """The fused run must actually amortize: one rank's fused work
        units grow by the per-path payoff cost only, not by a full extra
        simulation per contract (the accounting mirror of sharing z)."""
        pricer = ParallelMCPricer(N_PATHS, seed=11)
        single = run_engine(pricer, model1, payoffs1[0], EXPIRY, 2)
        fused = run_strip(pricer, model1, payoffs1, EXPIRY, 2)
        assert fused[0].compute_time < 4 * single.compute_time


class TestLatticeStripEquivalence:
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("american", [False, True])
    def test_lattice_1d_strip_bitwise(self, model1, payoffs1, p, american):
        pricer = ParallelLatticePricer(48, american=american)
        singles = [run_engine(pricer, model1, py, EXPIRY, p) for py in payoffs1]
        fused = run_strip(pricer, model1, payoffs1, EXPIRY, p)
        assert [r.price for r in fused] == [r.price for r in singles]

    def test_lattice_2d_strip_bitwise(self):
        w = rainbow_workload()
        payoffs = [CallOnMax(k) for k in (90.0, 100.0, 110.0)]
        pricer = ParallelLatticePricer(24)
        singles = [run_engine(pricer, w.model, py, w.expiry, 2) for py in payoffs]
        fused = run_strip(pricer, w.model, payoffs, w.expiry, 2)
        assert [r.price for r in fused] == [r.price for r in singles]

    def test_lattice_rejects_path_dependent_strip(self, model1):
        pricer = ParallelLatticePricer(24)
        with pytest.raises(ValidationError):
            run_strip(pricer, model1,
                      [AsianGeometricCall(100.0), AsianGeometricCall(90.0)],
                      EXPIRY, 2)


class TestRunStripValidation:
    def test_non_batchable_engine_rejected(self, model1, payoffs1):
        from repro.engine import ParallelPDEPricer

        pricer = ParallelPDEPricer(n_space=24, n_time=6)
        with pytest.raises(ValidationError, match="not batchable"):
            run_strip(pricer, model1, payoffs1, EXPIRY, 2)

    def test_non_batchable_engine_prices_a_strip_of_one(self):
        from repro.engine import ParallelPDEPricer
        from repro.workloads import spread_workload

        w = spread_workload()
        pricer = ParallelPDEPricer(n_space=24, n_time=6)
        single = run_engine(pricer, w.model, w.payoff, w.expiry, 2)
        [fused] = run_strip(pricer, w.model, [w.payoff], w.expiry, 2)
        assert (fused.price, fused.sim_time) == (single.price, single.sim_time)
        assert fused.meta["strip"] == {"contracts": 1, "index": 0}
        assert "strip" not in single.meta
        with pytest.raises(ValidationError, match="not batchable"):
            run_strip(pricer, w.model, [w.payoff, w.payoff], w.expiry, 2)

    def test_empty_strip_rejected(self, model1):
        pricer = ParallelMCPricer(N_PATHS)
        with pytest.raises(ValidationError, match="at least one payoff"):
            run_strip(pricer, model1, [], EXPIRY, 2)

    def test_dim_mismatch_rejected(self, model1):
        pricer = ParallelMCPricer(N_PATHS)
        with pytest.raises(ValidationError):
            run_strip(pricer, model1, [Call(100.0), CallOnMax(100.0)], EXPIRY, 2)


# ---------------------------------------------------------------------------
# Kernel layer: strip_partial / strip_estimate / beg_strip_prices
# ---------------------------------------------------------------------------


class TestStripKernels:
    def test_strip_estimate_matches_estimate_multibatch(self, model1):
        payoffs = [Call(95.0), Put(105.0)]
        n = BATCH_PATHS + 5_000
        fused = strip_estimate(PlainMC(), model1, payoffs, EXPIRY, n,
                               Philox4x32(9))
        for py, got in zip(payoffs, fused):
            want = PlainMC().estimate(model1, py, EXPIRY, n, Philox4x32(9))
            assert got == want

    def test_qmc_strip_estimate_matches_estimate(self, model1):
        payoffs = [Call(95.0), Put(105.0)]
        tech = QMCSobol(8, seed=5)
        n = BATCH_PATHS + 4_096
        fused = strip_estimate(tech, model1, payoffs, EXPIRY, n, Philox4x32(0))
        for py, got in zip(payoffs, fused):
            want = tech.estimate(model1, py, EXPIRY, n, Philox4x32(0))
            assert got == want

    def test_fallback_advances_master_generator(self, model1):
        """Contract 0 runs on the master generator, so after a fused
        partial the stream sits exactly where a single run left it — the
        alignment multi-batch estimate loops depend on."""
        mean = bs_price(100.0, 100.0, 0.2, 0.05, EXPIRY, option="call")
        tech = ControlVariate(Forward(), mean)
        g_fused, g_single = Philox4x32(4), Philox4x32(4)
        strip_partial(tech, model1, [Call(100.0), Put(100.0)], EXPIRY, 1_000,
                      g_fused)
        tech.partial(model1, Call(100.0), EXPIRY, 1_000, g_single)
        assert g_fused.normals(4).tolist() == g_single.normals(4).tolist()

    def test_fallback_strip_of_one_is_the_single_partial(self, model1):
        """A strip of one does what ``technique.partial`` does and nothing
        more: same partial, same generator state, no pre-image copy."""
        from unittest import mock

        mean = bs_price(100.0, 100.0, 0.2, 0.05, EXPIRY, option="call")
        tech = ControlVariate(Forward(), mean)
        g_fused, g_single = Philox4x32(4), Philox4x32(4)
        with mock.patch("repro.batch.kernels.copy.deepcopy") as deepcopy:
            fused = strip_partial(tech, model1, [Call(100.0)], EXPIRY, 1_000,
                                  g_fused)
        assert not deepcopy.called
        single = tech.partial(model1, Call(100.0), EXPIRY, 1_000, g_single)
        assert fused == [single]
        assert g_fused.normals(4).tolist() == g_single.normals(4).tolist()

    def test_beg_strip_matches_beg_price(self):
        w = rainbow_workload()
        payoffs = [CallOnMax(k) for k in (90.0, 100.0, 110.0)]
        for american in (False, True):
            fused = beg_strip_prices(w.model, payoffs, w.expiry, 16,
                                     american=american)
            singles = [beg_price(w.model, py, w.expiry, 16,
                                 american=american).price for py in payoffs]
            assert fused == singles

    def test_empty_strip_rejected(self, model1):
        with pytest.raises(ValidationError):
            strip_partial(PlainMC(), model1, [], EXPIRY, 100, Philox4x32(0))
        with pytest.raises(ValidationError):
            beg_strip_prices(model1, [], EXPIRY, 8)


# ---------------------------------------------------------------------------
# Planning layer: batch_key / ContractStrip / plan_batches
# ---------------------------------------------------------------------------


def _strip_requests(n=4, *, seed=0, n_paths=N_PATHS, engine="mc"):
    return [PricingRequest(w, engine=engine, n_paths=n_paths, seed=seed,
                           p=2, name=w.name)
            for w in strike_strip(n)]


class TestPlanBatches:
    def test_shared_stream_groups_into_one_strip(self):
        plan = plan_batches(_strip_requests(5))
        assert len(plan.strips) == 1 and len(plan.strips[0]) == 5
        assert plan.singles == ()
        assert plan.fused_contracts == 5

    def test_different_settings_split_strips(self):
        reqs = _strip_requests(3, seed=0) + _strip_requests(3, seed=1)
        plan = plan_batches(reqs)
        assert len(plan.strips) == 2
        assert {len(s) for s in plan.strips} == {3}

    def test_min_strip_returns_undersized_groups_to_singles(self):
        reqs = _strip_requests(2)
        plan = plan_batches(reqs, min_strip=3)
        assert plan.strips == ()
        assert list(plan.singles) == reqs

    def test_non_batchable_family_stays_single(self):
        from repro.workloads import spread_workload

        w = spread_workload()
        reqs = [PricingRequest(w, engine="pde", grid=24, steps=6, p=2)
                for _ in range(3)]
        plan = plan_batches(reqs + _strip_requests(3))
        assert len(plan.strips) == 1
        assert [r.engine for r in plan.singles] == ["pde"] * 3
        # tasks(): strips first, then singles — a stable map order.
        tasks = plan.tasks()
        assert isinstance(tasks[0], ContractStrip)
        assert len(tasks) == 4

    def test_rejects_non_request_items(self):
        with pytest.raises(ValidationError, match="PricingRequest"):
            plan_batches(["not-a-request"])

    def test_book_hashes_once_per_market_value(self, monkeypatch):
        """A ``book_batch``-shaped book: 4 MC ladders on one model each, a
        lattice ladder whose 128 requests each build an equal-valued fresh
        model, and 32 singles on markets of their own. ``batch_key`` runs
        once per distinct market value, 37 times; the strips are the ones
        a hash per request forms."""
        import random

        import repro.batch.plan as plan_mod
        from repro.workloads import random_portfolio
        from repro.workloads.generators import Workload

        book = [PricingRequest(w, engine="mc", n_paths=2_000, seed=ladder)
                for ladder in range(4)
                for w in strike_strip(250, dim=2, vol=0.18 + 0.01 * ladder)]
        for k in np.linspace(80.0, 120.0, 128):
            base = rainbow_workload()
            book.append(PricingRequest(
                Workload(f"k{k:g}", base.model, CallOnMax(float(k)),
                         base.expiry), engine="lattice", steps=16))
        book += [PricingRequest(w, engine="mc", n_paths=2_000, seed=7)
                 for w in random_portfolio(32, dim=4, seed=7)]
        random.Random(3).shuffle(book)

        want = {}
        for r in book:
            want.setdefault(batch_key(r), []).append(r)
        calls = []
        real = plan_mod.batch_key
        monkeypatch.setattr(plan_mod, "batch_key",
                            lambda r: calls.append(r) or real(r))
        plan = plan_batches(book)
        assert len(calls) == 37
        assert [(s.key, s.requests) for s in plan.strips] == [
            (key, tuple(members)) for key, members in want.items()
            if len(members) > 1]
        assert len(plan.strips) == 5 and len(plan.singles) == 32

    def test_plan_is_frozen(self):
        plan = plan_batches(_strip_requests(3))
        assert isinstance(plan, BatchPlan)
        with pytest.raises(AttributeError):
            plan.strips = ()


class TestContractStrip:
    def test_mixed_keys_rejected(self):
        reqs = _strip_requests(2, seed=0) + _strip_requests(2, seed=1)
        with pytest.raises(ValidationError):
            ContractStrip.from_requests(reqs)

    def test_keys_preserve_request_identity(self):
        from repro.serve.batching import request_key, request_keys

        reqs = _strip_requests(4)
        strip = ContractStrip.from_requests(reqs)
        keys = request_keys(strip.requests)
        assert keys == [request_key(r) for r in reqs]
        assert len(set(keys)) == 4  # strikes differ -> keys differ
        assert len({batch_key(r) for r in reqs}) == 1


class TestRegistryBatchable:
    def test_batchable_families(self):
        from repro.batch.plan import _batchable
        from repro.verify.batched import BATCHED_FAMILIES

        # The planner fuses the servable families whose engine class is
        # batchable; the verify replay also fuses the QMC reference.
        assert _batchable() == {"mc", "lattice"}
        assert all(default_registry().get(n).pipeline().batchable
                   for n in _batchable())
        assert set(BATCHED_FAMILIES) == {"mc", "qmc", "lattice"}


# ---------------------------------------------------------------------------
# Serving layer: the service's fused path vs the serial reference
# ---------------------------------------------------------------------------


class TestServeBatched:
    def test_batched_service_bitwise_and_one_map(self):
        reqs = _strip_requests(6, n_paths=1_500)
        single = [price_request(r) for r in reqs]
        with PricingService(max_batch=len(reqs), cache=None) as svc:
            batched = svc.price_many(reqs)
            assert svc.map_calls == 1
        assert [(q.price, q.stderr) for q in batched] == \
               [(q.price, q.stderr) for q in single]

    def test_batched_cache_fanout_and_hot_replay(self):
        reqs = _strip_requests(4, n_paths=1_500)
        stream = reqs + reqs[:2]  # in-batch duplicates
        cache = PriceCache(32)
        with PricingService(max_batch=len(stream), cache=cache) as svc:
            quotes = svc.price_many(stream)
            assert svc.map_calls == 1
            assert quotes[0] is quotes[4] and quotes[1] is quotes[5]
            svc.price_many(reqs)  # 100% hit replay
            assert svc.map_calls == 1  # cache answered; no new map

    def test_mixed_book_strips_and_singles_one_map(self):
        from repro.workloads import spread_workload

        w = spread_workload()
        reqs = _strip_requests(3, n_paths=1_500) + [
            PricingRequest(w, engine="pde", grid=24, steps=6, p=2)]
        single = [price_request(r) for r in reqs]
        with PricingService(max_batch=len(reqs), cache=None) as svc:
            batched = svc.price_many(reqs)
            assert svc.map_calls == 1
        assert [(q.price, q.stderr, q.engine) for q in batched] == \
               [(q.price, q.stderr, q.engine) for q in single]

    def test_all_singles_batch_maps_the_request_objects(self):
        """With nothing to fuse, the one ``backend.map`` is handed the
        deduped request objects themselves: one map, three tasks."""
        from repro.batch.kernels import price_task
        from repro.parallel.backends import SerialBackend
        from repro.workloads import spread_workload

        class RecordingBackend(SerialBackend):
            def __init__(self):
                super().__init__()
                self.maps = []

            def map(self, fn, tasks, *, chunksize=None):
                tasks = list(tasks)
                self.maps.append((fn, tasks))
                return super().map(fn, tasks, chunksize=chunksize)

        w = spread_workload()
        reqs = [PricingRequest(w, engine="pde", grid=24, steps=6, p=2),
                *_strip_requests(1, n_paths=1_500),
                *_strip_requests(1, n_paths=1_500, seed=1)]
        reqs.append(reqs[0])  # an in-batch duplicate
        backend = RecordingBackend()
        with PricingService(backend, max_batch=len(reqs), cache=None) as svc:
            quotes = svc.price_many(reqs)
        (fn, tasks), = backend.maps
        assert fn is price_task
        assert len(tasks) == 3
        assert all(task is req for task, req in zip(tasks, reqs))
        assert quotes == [price_request(r) for r in reqs]

    def test_min_strip_is_validated_at_the_door(self):
        """A bad ``min_strip`` must raise from the constructor, before the
        service exists to accept (and then lose) a request."""
        for bad in (0, -1, 1.5):
            with pytest.raises(ValidationError, match="min_strip"):
                PricingService(min_strip=bad)

    def test_min_strip_disables_fusion_for_small_groups(self):
        from repro.obs import MetricsRegistry

        reqs = _strip_requests(2, n_paths=1_500)
        metrics = MetricsRegistry()
        with PricingService(max_batch=len(reqs), cache=None, min_strip=3,
                            metrics=metrics) as svc:
            svc.price_many(reqs)
        assert metrics.counter("serve.strips").value == 0

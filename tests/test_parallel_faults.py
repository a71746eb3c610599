"""Chaos suite: deterministic fault injection across SimCluster and all
three real backends.

Every test runs from a *fixed fault seed* (or a hand-written plan), so the
whole suite is reproducible run-to-run — the point of the fault layer. The
invariants exercised:

* byte-reproducibility — same fault seed ⇒ identical ``RunReport`` JSON,
  identical prices, identical simulated timelines;
* recovery exactness — ``retry`` over transient faults reproduces the
  fault-free price *bitwise* on every backend (tasks are re-copied per
  attempt, so RNG substreams are never consumed twice);
* degraded honesty — ``degrade`` reprices with the survivors and the
  reported CI widens with the reduced sample;
* policy semantics — fail_fast raises immediately, retry raises on
  exhaustion, degrade raises only when nothing survives.
"""

import pytest

from repro.engine import (
    ParallelLatticePricer,
    ParallelLSMPricer,
    ParallelMCPricer,
    ParallelPDEPricer,
)
from repro.errors import FaultError, ValidationError
from repro.mc.qmc import QMCSobol
from repro.parallel import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultPolicy,
    ProcessBackend,
    SerialBackend,
    SimulatedCluster,
    ThreadBackend,
    plan_report,
    resilient_map,
)
from repro.payoffs import BasketCall
from repro.workloads import basket_workload

pytestmark = pytest.mark.chaos

N_PATHS = 4_000
P = 4


@pytest.fixture(scope="module")
def workload():
    return basket_workload(2)


@pytest.fixture(scope="module")
def fault_free(workload):
    w = workload
    return ParallelMCPricer(N_PATHS, seed=7).price(w.model, w.payoff, w.expiry, P)


def _price(w, *, faults=None, policy=None, backend=None, technique=None):
    pricer = ParallelMCPricer(N_PATHS, seed=7, faults=faults, policy=policy,
                              backend=backend, technique=technique)
    return pricer.price(w.model, w.payoff, w.expiry, P)


class TestPlanDeterminism:
    def test_same_seed_same_plan(self):
        kw = dict(crash_rate=0.5, straggler_rate=0.5, drop_rate=0.3,
                  corrupt_rate=0.2, permanent_rate=0.25)
        assert FaultPlan.random(42, 16, **kw) == FaultPlan.random(42, 16, **kw)

    def test_different_seeds_differ(self):
        kw = dict(crash_rate=0.5, straggler_rate=0.5)
        plans = {FaultPlan.random(s, 16, **kw).events for s in range(8)}
        assert len(plans) > 1

    def test_rates_validated(self):
        with pytest.raises(ValidationError):
            FaultPlan.random(0, 4, crash_rate=1.5)

    def test_slowdown_validated(self):
        with pytest.raises(ValidationError):
            FaultEvent(0, FaultKind.STRAGGLER, slowdown=0.5)

    def test_plan_queries(self):
        plan = FaultPlan(events=(
            FaultEvent(1, FaultKind.CRASH),
            FaultEvent(2, FaultKind.CRASH, attempt=1, permanent=True),
            FaultEvent(3, FaultKind.STRAGGLER, slowdown=2.0),
        ))
        assert plan.fault_for(1, 0) is not None
        assert plan.fault_for(1, 1) is None          # transient: strikes once
        assert plan.fault_for(2, 0) is None
        assert plan.fault_for(2, 5) is not None      # permanent: from attempt 1 on
        assert plan.fault_for(3, 0) is None          # stragglers never fail
        assert plan.slowdown(3) == 2.0
        assert plan.slowdown(0) == 1.0


class TestByteReproducibility:
    """Same fault seed ⇒ identical reports, prices and timelines."""

    def test_seeded_run_reproduces_exactly(self, workload):
        plan = FaultPlan.random(1234, P, crash_rate=0.5, straggler_rate=0.5,
                                drop_rate=0.3)
        runs = [_price(workload, faults=plan, policy="retry") for _ in range(2)]
        assert runs[0].price == runs[1].price
        assert runs[0].stderr == runs[1].stderr
        assert runs[0].sim_time == runs[1].sim_time
        r0, r1 = (r.meta["fault_report"] for r in runs)
        assert r0.to_json() == r1.to_json()

    @pytest.mark.parametrize("seed", [3, 99, 1234])
    @pytest.mark.parametrize("mode", ["retry", "degrade", "fail_fast"])
    def test_plan_report_matches_resilient_map_report(self, workload, mode,
                                                      seed):
        """The pure (plan, policy) schedule equals the executed one under
        every mode: the same report, or the same refusal."""

        def outcome(report):
            try:
                return report().to_json()
            except FaultError as exc:
                return f"FaultError: {exc}"

        plan = FaultPlan.random(seed, P, crash_rate=0.6, drop_rate=0.4,
                                permanent_rate=0.15)
        policy = FaultPolicy(mode=mode, max_retries=4)
        run = ParallelMCPricer(N_PATHS, seed=7, faults=plan, policy=policy)
        executed = outcome(lambda: run.price(
            workload.model, workload.payoff, workload.expiry, P,
        ).meta["fault_report"])
        predicted = outcome(lambda: plan_report(plan, policy, P))
        assert executed == predicted


class TestRetryRecovery:
    """Recovered transient faults reproduce the fault-free run bitwise."""

    @pytest.mark.parametrize("kind", [FaultKind.CRASH, FaultKind.DROP,
                                      FaultKind.CORRUPT])
    def test_single_transient_fault_recovers_exactly(self, workload,
                                                     fault_free, kind):
        plan = FaultPlan(events=(FaultEvent(1, kind),))
        res = _price(workload, faults=plan, policy="retry")
        assert res.price == fault_free.price
        assert res.stderr == fault_free.stderr
        report = res.meta["fault_report"]
        assert report.recovered_ranks == (1,)
        assert report.n_retries == 1
        assert not report.degraded

    @pytest.mark.parametrize("backend_cls,kwargs", [
        (SerialBackend, {}),
        (ThreadBackend, {"max_workers": 2}),
        (ProcessBackend, {"max_workers": 2}),
    ])
    def test_recovery_exact_on_every_backend(self, workload, fault_free,
                                             backend_cls, kwargs):
        plan = FaultPlan(events=(
            FaultEvent(0, FaultKind.DROP),
            FaultEvent(2, FaultKind.CRASH),
        ))
        with backend_cls(**kwargs) as backend:
            res = _price(workload, faults=plan, policy="retry", backend=backend)
        assert res.price == fault_free.price

    def test_every_rank_crashing_once_still_recovers(self, workload, fault_free):
        plan = FaultPlan(events=tuple(
            FaultEvent(r, FaultKind.CRASH) for r in range(P)
        ))
        res = _price(workload, faults=plan, policy="retry")
        assert res.price == fault_free.price
        assert res.meta["fault_report"].n_retries == P

    def test_qmc_technique_recovers_exactly(self, workload):
        payoff = BasketCall(2, 100.0)
        base = ParallelMCPricer(N_PATHS, seed=7, technique=QMCSobol(replicates=8))
        ref = base.price(workload.model, payoff, workload.expiry, P)
        plan = FaultPlan.single_crash(3)
        res = ParallelMCPricer(
            N_PATHS, seed=7, technique=QMCSobol(replicates=8),
            faults=plan, policy="retry",
        ).price(workload.model, payoff, workload.expiry, P)
        assert res.price == ref.price

    def test_retry_charges_fault_time(self, workload, fault_free):
        plan = FaultPlan.single_crash(1)
        res = _price(workload, faults=plan, policy="retry")
        assert res.meta["fault_report"].faults_injected == 1
        assert res.sim_time > fault_free.sim_time  # recovery isn't free


class TestDegrade:
    def test_permanent_loss_reprices_with_survivors(self, workload, fault_free):
        plan = FaultPlan.single_crash(2, permanent=True)
        res = _price(workload, faults=plan, policy="degrade")
        report = res.meta["fault_report"]
        assert report.lost_ranks == (2,)
        assert res.meta["degraded"] is True
        # Fewer paths ⇒ honest, wider CI; price still in the right place.
        assert res.stderr > fault_free.stderr
        assert res.meta["n_paths"] < N_PATHS
        assert abs(res.price - fault_free.price) < 5 * fault_free.stderr

    def test_transient_faults_do_not_degrade(self, workload, fault_free):
        plan = FaultPlan.single_crash(0)
        res = _price(workload, faults=plan, policy="degrade")
        assert res.price == fault_free.price
        assert not res.meta["fault_report"].degraded

    def test_all_ranks_lost_raises(self, workload):
        plan = FaultPlan(events=tuple(
            FaultEvent(r, FaultKind.CRASH, permanent=True) for r in range(P)
        ))
        with pytest.raises(FaultError, match="all .* ranks lost"):
            _price(workload, faults=plan, policy="degrade")


class TestPolicies:
    def test_fail_fast_raises_immediately(self, workload):
        plan = FaultPlan.single_crash(0)
        with pytest.raises(FaultError, match="fail_fast"):
            _price(workload, faults=plan, policy="fail_fast")

    def test_retry_exhaustion_raises(self, workload):
        plan = FaultPlan.single_crash(0, permanent=True)
        with pytest.raises(FaultError, match="exhausted"):
            _price(workload, faults=plan,
                   policy=FaultPolicy(mode="retry", max_retries=2))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            FaultPolicy(mode="shrug")
        with pytest.raises(ValidationError):
            FaultPolicy.parse(123)

    def test_backoff_schedule(self):
        policy = FaultPolicy(backoff_base=0.1, backoff_factor=2.0)
        assert policy.backoff_for(0) == 0.0
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(3) == pytest.approx(0.4)

    def test_timeout_detects_straggler_and_recovers(self, workload, fault_free):
        # Attempt 0 sleeps (real injected straggler delay) past the timeout,
        # is discarded, and the retry — no longer slowed — succeeds.
        plan = FaultPlan(events=(
            FaultEvent(1, FaultKind.CRASH),  # also exercise mixed faults
            FaultEvent(0, FaultKind.STRAGGLER, slowdown=2.0),
        ))
        policy = FaultPolicy(mode="retry", timeout=120.0, straggler_sleep=0.0)
        res = _price(workload, faults=plan, policy=policy)
        assert res.price == fault_free.price


class TestTimeoutOutcome:
    def test_slow_attempt_marked_timeout(self):
        def worker(x):
            import time

            time.sleep(0.05)
            return x

        plan = FaultPlan.none()
        policy = FaultPolicy(mode="degrade", max_retries=0, timeout=0.01)
        with pytest.raises(FaultError):
            # every attempt exceeds the budget ⇒ all ranks lost
            resilient_map(SerialBackend(), worker, [1, 2], plan=plan,
                          policy=policy)

    def test_timeout_then_recovery_via_sleep_injection(self):
        plan = FaultPlan(events=(
            FaultEvent(0, FaultKind.STRAGGLER, slowdown=2.0),
        ))
        # straggler_sleep stretches attempt 0 of rank 0 past the timeout;
        # the plan applies the same slowdown to retries, so allow one loss
        # under degrade and keep rank 1 clean.
        policy = FaultPolicy(mode="degrade", max_retries=2, timeout=0.05,
                             straggler_sleep=0.2)
        results, report = resilient_map(SerialBackend(), lambda x: x * 10,
                                        [1, 2], plan=plan, policy=policy)
        assert results[1] == 20
        attempts0 = [a for a in report.attempts if a.rank == 0]
        assert attempts0[0].outcome == "timeout"


class TestResilientMapUnit:
    def test_rng_streams_not_consumed_twice(self):
        """A retried task replays identical draws: the attempt runs a deep
        copy, so the parent's task (and its generator state) is untouched."""
        from repro.rng import Philox4x32

        gens = [Philox4x32(3, stream=r) for r in range(3)]
        tasks = [(g,) for g in gens]

        def draw(task):
            return float(task[0].uniforms(4).sum())

        expected, _ = resilient_map(SerialBackend(), draw,
                                    [(g.clone(),) for g in gens])
        plan = FaultPlan(events=(FaultEvent(1, FaultKind.CRASH),
                                 FaultEvent(2, FaultKind.DROP)))
        got, report = resilient_map(SerialBackend(), draw, tasks, plan=plan,
                                    policy="retry")
        assert got == expected
        assert report.recovered_ranks == (1, 2)

    def test_real_worker_exception_is_a_fault(self):
        def bomb(task):
            if task == 1:
                raise RuntimeError("boom")
            return task

        results, report = resilient_map(SerialBackend(), bomb, [0, 1, 2],
                                        policy="degrade")
        assert results == [0, None, 2]
        bad = [a for a in report.attempts if a.outcome == "error"]
        assert bad and all(a.rank == 1 and "boom" in a.detail for a in bad)
        assert report.lost_ranks == (1,)

    def test_fail_fast_propagates(self):
        def bomb(task):
            raise RuntimeError("boom")

        with pytest.raises(FaultError):
            resilient_map(SerialBackend(), bomb, [0], policy="fail_fast")


class TestDeterministicEngines:
    """Lattice/PDE/LSM: values bit-identical under faults, timeline not."""

    def _straggler(self):
        return FaultPlan(events=(FaultEvent(0, FaultKind.STRAGGLER,
                                            slowdown=4.0),))

    def test_lattice_values_identical_timeline_slower(self, workload):
        w = workload
        base = ParallelLatticePricer(24).price(w.model, w.payoff, w.expiry, P)
        slow = ParallelLatticePricer(24, faults=self._straggler()).price(
            w.model, w.payoff, w.expiry, P)
        assert slow.price == base.price
        assert slow.sim_time > base.sim_time

    def test_lattice_crash_retry_charges_fault_time(self, workload):
        w = workload
        plan = FaultPlan.single_crash(1)
        res = ParallelLatticePricer(24, faults=plan, policy="retry").price(
            w.model, w.payoff, w.expiry, P)
        base = ParallelLatticePricer(24).price(w.model, w.payoff, w.expiry, P)
        assert res.price == base.price
        assert res.meta["fault_report"].n_retries == 1
        assert res.sim_time > base.sim_time

    def test_pde_values_identical_under_faults(self, workload):
        w = workload
        kw = dict(n_space=24, n_time=6)
        base = ParallelPDEPricer(**kw).price(w.model, w.payoff, w.expiry, P)
        res = ParallelPDEPricer(**kw, faults=FaultPlan.single_crash(0),
                                policy="retry").price(
            w.model, w.payoff, w.expiry, P)
        assert res.price == base.price
        assert res.sim_time > base.sim_time

    def test_lsm_values_identical_under_faults(self, workload):
        w = workload
        base = ParallelLSMPricer(2000, 6, seed=11).price(
            w.model, w.payoff, w.expiry, P)
        res = ParallelLSMPricer(2000, 6, seed=11,
                                faults=FaultPlan.single_crash(2),
                                policy="retry").price(
            w.model, w.payoff, w.expiry, P)
        assert res.price == base.price
        assert res.meta["fault_report"].recovered_ranks == (2,)

    @pytest.mark.parametrize("pricer_kwargs,cls", [
        (dict(steps=24), ParallelLatticePricer),
        (dict(n_space=24, n_time=6), ParallelPDEPricer),
    ])
    def test_deterministic_engines_refuse_degrade_loss(self, workload,
                                                       pricer_kwargs, cls):
        w = workload
        plan = FaultPlan.single_crash(1, permanent=True)
        pricer = cls(**pricer_kwargs, faults=plan, policy="degrade")
        with pytest.raises(FaultError, match="cannot"):
            pricer.price(w.model, w.payoff, w.expiry, P)


class TestStripChaos:
    """Fault injection against fused contract strips.

    A worker crash mid-strip kills a whole rank's fused partial — every
    contract's share of that rank at once. ``retry`` must reproduce the
    fault-free strip bitwise (the retried task replays an identical
    generator copy), and ``degrade`` must reprice every member from the
    same surviving ranks, stably across replays.
    """

    PAYOFF_STRIKES = (90.0, 100.0, 110.0)

    def _payoffs(self):
        return [BasketCall(2, k) for k in self.PAYOFF_STRIKES]

    def _run_strip(self, w, *, faults=None, policy=None, backend=None):
        from repro.engine.runner import run_strip

        pricer = ParallelMCPricer(N_PATHS, seed=7, faults=faults,
                                  policy=policy, backend=backend)
        return run_strip(pricer, w.model, self._payoffs(), w.expiry, P)

    def test_crash_mid_strip_retry_is_bitwise(self, workload):
        clean = self._run_strip(workload)
        res = self._run_strip(workload, faults=FaultPlan.single_crash(1),
                              policy="retry")
        assert [r.price for r in res] == [r.price for r in clean]
        assert [r.stderr for r in res] == [r.stderr for r in clean]
        report = res[0].meta["fault_report"]
        assert report.recovered_ranks == (1,)
        assert res[0].sim_time > clean[0].sim_time  # recovery isn't free

    def test_strip_retry_matches_single_runs(self, workload):
        from repro.engine.runner import run_engine

        res = self._run_strip(workload, faults=FaultPlan.single_crash(2),
                              policy="retry")
        pricer = ParallelMCPricer(N_PATHS, seed=7)
        singles = [run_engine(pricer, workload.model, py, workload.expiry, P).price
                   for py in self._payoffs()]
        assert [r.price for r in res] == singles

    @pytest.mark.parametrize("backend_cls,kwargs", [
        (SerialBackend, {}),
        (ThreadBackend, {"max_workers": 2}),
        (ProcessBackend, {"max_workers": 2}),
    ])
    def test_strip_recovery_exact_on_every_backend(self, workload,
                                                   backend_cls, kwargs):
        clean = self._run_strip(workload)
        plan = FaultPlan(events=(FaultEvent(0, FaultKind.DROP),
                                 FaultEvent(2, FaultKind.CRASH)))
        with backend_cls(**kwargs) as backend:
            res = self._run_strip(workload, faults=plan, policy="retry",
                                  backend=backend)
        assert [r.price for r in res] == [r.price for r in clean]

    def test_strip_degrades_when_rank_zero_is_lost(self, workload):
        """The reduce payload is sized from a surviving rank's partial —
        rank 0 has none when it is the one that was lost."""
        from repro.engine.runner import run_engine

        plan = FaultPlan.single_crash(0, permanent=True)
        res = self._run_strip(workload, faults=plan, policy="degrade")
        pricer = ParallelMCPricer(N_PATHS, seed=7, faults=plan,
                                  policy="degrade")
        singles = [run_engine(pricer, workload.model, py, workload.expiry, P)
                   for py in self._payoffs()]
        assert res[0].meta["lost_ranks"] == (0,)
        assert [r.price for r in res] == [r.price for r in singles]
        assert [r.stderr for r in res] == [r.stderr for r in singles]

    def test_strip_degrade_is_stable_and_honest(self, workload):
        clean = self._run_strip(workload)
        plan = FaultPlan.single_crash(2, permanent=True)
        runs = [self._run_strip(workload, faults=plan, policy="degrade")
                for _ in range(2)]
        # Replay-stable: the degraded strip is a pure function of the plan.
        assert [r.price for r in runs[0]] == [r.price for r in runs[1]]
        assert [r.stderr for r in runs[0]] == [r.stderr for r in runs[1]]
        for degraded, full in zip(runs[0], clean):
            assert degraded.meta["fault_report"].lost_ranks == (2,)
            assert degraded.stderr > full.stderr  # fewer paths, wider CI
            assert abs(degraded.price - full.price) < 5 * full.stderr


class TestFaultReportingSurface:
    def test_gantt_renders_fault_glyph(self, workload):
        w = workload
        pricer = ParallelMCPricer(N_PATHS, seed=7, record=True,
                                  faults=FaultPlan.single_crash(1),
                                  policy="retry")
        res = pricer.price(w.model, w.payoff, w.expiry, P)
        from repro.perf import render_gantt

        art = render_gantt(res.meta["cluster"])
        assert "x" in art.splitlines()[1]  # rank 1's row shows fault time
        assert "x fault" in art

    def test_cluster_fault_time_in_report_dict(self, workload):
        res = _price(workload, faults=FaultPlan.single_crash(1),
                     policy="retry")
        assert res.sim_time > 0.0
        # the wasted attempt shows up in the simulated fault account
        cluster = SimulatedCluster(2)
        cluster.delay(0, 1.5, kind="fault")
        assert cluster.report()["fault_time"] == 1.5


class TestRunIdThreading:
    """The run_id correlates the RunReport, trace instants and ledger —
    without ever entering the report's canonical serialization."""

    def test_resilient_map_stamps_report_and_instants(self):
        from repro.obs import Tracer

        tracer = Tracer()
        plan = FaultPlan(events=(FaultEvent(0, FaultKind.CRASH),
                                 FaultEvent(1, FaultKind.DROP)))
        _, report = resilient_map(SerialBackend(tracer=tracer), lambda t: t,
                                  [0, 1, 2], plan=plan, policy="retry",
                                  run_id="cafe00112233")
        assert report.run_id == "cafe00112233"
        instants = [e for e in tracer.events
                    if e.name in ("fault", "retry", "degrade")]
        assert instants
        assert all(e.args["run_id"] == "cafe00112233" for e in instants)

    def test_default_is_anonymous(self):
        from repro.obs import Tracer

        tracer = Tracer()
        _, report = resilient_map(SerialBackend(tracer=tracer), lambda t: t,
                                  [0, 1], plan=FaultPlan.single_crash(0),
                                  policy="retry")
        assert report.run_id is None
        faults = [e for e in tracer.events if e.name == "fault"]
        assert faults and all("run_id" not in e.args for e in faults)

    def test_run_id_excluded_from_canonical_serialization(self):
        plan = FaultPlan.single_crash(0)
        _, with_id = resilient_map(SerialBackend(), lambda t: t, [0, 1],
                                   plan=plan, policy="retry",
                                   run_id="cafe00112233")
        _, without = resilient_map(SerialBackend(), lambda t: t, [0, 1],
                                   plan=plan, policy="retry")
        assert with_id.to_json() == without.to_json()
        assert "run_id" not in with_id.to_dict()

"""Simulated cluster: clock semantics, collectives vs analytic costs."""

import pytest

from repro.errors import ValidationError
from repro.parallel import (
    MachineSpec,
    SimulatedCluster,
    allreduce_time,
    alltoall_time,
    bcast_time,
    linear_reduce_time,
    tree_reduce_time,
)
from repro.parallel.collectives import barrier_time, halo_exchange_time


class TestMachineSpec:
    def test_message_time(self):
        spec = MachineSpec(flop_time=1e-8, alpha=1e-5, beta=1e-9)
        assert spec.message_time(1000) == pytest.approx(1e-5 + 1e-6)

    def test_validation(self):
        with pytest.raises(ValidationError):
            MachineSpec(flop_time=0.0)
        with pytest.raises(ValidationError):
            MachineSpec(alpha=-1.0)
        with pytest.raises(ValidationError):
            MachineSpec().message_time(-5)


class TestCompute:
    def test_clock_advances(self):
        c = SimulatedCluster(2, MachineSpec(flop_time=1e-6))
        c.compute(0, 1000)
        assert c.clocks[0] == pytest.approx(1e-3)
        assert c.clocks[1] == 0.0
        assert c.elapsed() == pytest.approx(1e-3)

    def test_compute_all(self):
        c = SimulatedCluster(3, MachineSpec(flop_time=1e-6))
        c.compute_all([100, 200, 300])
        assert c.elapsed() == pytest.approx(3e-4)
        assert c.compute_time == pytest.approx(3e-4)

    def test_negative_work_rejected(self):
        with pytest.raises(ValidationError):
            SimulatedCluster(1).compute(0, -1)

    def test_rank_bounds(self):
        with pytest.raises(ValidationError):
            SimulatedCluster(2).compute(2, 1)


class TestSend:
    def test_rendezvous_synchronizes_pair(self):
        spec = MachineSpec(flop_time=1e-6, alpha=1e-5, beta=1e-9)
        c = SimulatedCluster(2, spec)
        c.compute(0, 100)  # rank 0 at 1e-4, rank 1 at 0
        c.send(0, 1, 800)
        expected = 1e-4 + spec.message_time(800)
        assert c.clocks[0] == pytest.approx(expected)
        assert c.clocks[1] == pytest.approx(expected)
        assert c.messages == 1
        assert c.bytes_moved == 800

    def test_idle_accounted_to_early_rank(self):
        c = SimulatedCluster(2, MachineSpec(flop_time=1e-6))
        c.compute(0, 1000)
        c.send(0, 1, 8)
        assert c.accounts[1].idle == pytest.approx(1e-3)
        assert c.accounts[0].idle == 0.0

    def test_self_send_free(self):
        c = SimulatedCluster(2)
        c.send(1, 1, 1000)
        assert c.elapsed() == 0.0
        assert c.messages == 0


class TestCollectivesMatchAnalyticModels:
    """The event-driven simulation and the closed-form cost models must
    agree when ranks start synchronized — the consistency contract between
    the two layers of the performance model."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8, 16, 33])
    def test_tree_reduce(self, p):
        spec = MachineSpec()
        c = SimulatedCluster(p, spec)
        c.reduce(24, root=0, topology="tree")
        assert c.elapsed() == pytest.approx(tree_reduce_time(p, 24, spec), rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 5, 16])
    def test_linear_reduce(self, p):
        spec = MachineSpec()
        c = SimulatedCluster(p, spec)
        c.reduce(24, root=0, topology="linear")
        assert c.elapsed() == pytest.approx(linear_reduce_time(p, 24, spec), rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 4, 9, 32])
    def test_bcast(self, p):
        spec = MachineSpec()
        c = SimulatedCluster(p, spec)
        c.bcast(64, root=0)
        assert c.elapsed() == pytest.approx(bcast_time(p, 64, spec), rel=1e-12)

    @pytest.mark.parametrize("p", [2, 8])
    def test_allreduce(self, p):
        spec = MachineSpec()
        c = SimulatedCluster(p, spec)
        c.allreduce(24)
        assert c.elapsed() == pytest.approx(allreduce_time(p, 24, spec), rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 6, 16])
    def test_alltoall(self, p):
        spec = MachineSpec()
        c = SimulatedCluster(p, spec)
        c.alltoall(1000)
        assert c.elapsed() == pytest.approx(alltoall_time(p, 1000, spec), rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 8, 17])
    def test_barrier(self, p):
        spec = MachineSpec()
        c = SimulatedCluster(p, spec)
        c.barrier()
        assert c.elapsed() == pytest.approx(barrier_time(p, spec), rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 8])
    def test_halo(self, p):
        spec = MachineSpec()
        c = SimulatedCluster(p, spec)
        c.halo_exchange(512)
        assert c.elapsed() == pytest.approx(halo_exchange_time(p, 512, spec), rel=1e-12)


class TestTopologyComparison:
    def test_tree_beats_linear_at_scale(self):
        spec = MachineSpec()
        assert tree_reduce_time(32, 24, spec) < linear_reduce_time(32, 24, spec)
        # log₂ 32 = 5 rounds vs 31 messages.
        ratio = linear_reduce_time(32, 24, spec) / tree_reduce_time(32, 24, spec)
        assert ratio == pytest.approx(31 / 5, rel=1e-9)

    def test_equal_at_two_ranks(self):
        spec = MachineSpec()
        assert tree_reduce_time(2, 8, spec) == linear_reduce_time(2, 8, spec)


class TestRootRelabeling:
    def test_reduce_to_nonzero_root(self):
        spec = MachineSpec()
        c = SimulatedCluster(4, spec)
        c.compute(2, 500)
        c.reduce(24, root=2, topology="tree")
        # Root 2's clock is the reduce finish time.
        assert c.clocks[2] == c.elapsed()

    def test_invalid_topology(self):
        with pytest.raises(ValidationError):
            SimulatedCluster(2).reduce(8, topology="ring")


class TestReport:
    def test_report_fields(self):
        c = SimulatedCluster(2)
        c.compute(0, 100)
        c.reduce(24)
        rep = c.report()
        assert set(rep) == {
            "p", "elapsed", "compute_time", "comm_time", "idle_time",
            "fault_time", "messages", "bytes_moved", "ranks",
        }
        assert rep["elapsed"] >= rep["compute_time"]
        assert rep["fault_time"] == 0.0  # no fault plan attached

    def test_per_rank_breakdown(self):
        c = SimulatedCluster(2)
        c.compute(0, 100)
        c.reduce(24)
        rep = c.report()
        ranks = rep["ranks"]
        assert len(ranks) == 2
        assert all(set(r) == {"compute", "comm", "idle", "fault"}
                   for r in ranks)
        # Only rank 0 computed; rank 1 idled waiting for it in the reduce.
        assert ranks[0]["compute"] > 0.0
        assert ranks[1]["compute"] == 0.0
        assert ranks[1]["idle"] > 0.0
        # The aggregate fields are the per-rank maxima of these accounts.
        for key, total in (("compute", "compute_time"), ("comm", "comm_time"),
                           ("idle", "idle_time"), ("fault", "fault_time")):
            assert max(r[key] for r in ranks) == pytest.approx(rep[total])

    def test_single_rank_never_communicates(self):
        c = SimulatedCluster(1)
        c.compute(0, 1000)
        c.barrier()
        c.reduce(24)
        c.bcast(24)
        c.alltoall(100)
        c.halo_exchange(8)
        assert c.comm_time == 0.0
        assert c.messages == 0


class TestFaultsOnCluster:
    """Fault-plan consumption: straggler stretch, the fault account."""

    def test_straggler_stretches_compute(self):
        from repro.parallel import FaultEvent, FaultKind, FaultPlan

        plan = FaultPlan(events=(FaultEvent(1, FaultKind.STRAGGLER, slowdown=2.5),))
        base = SimulatedCluster(2)
        slow = SimulatedCluster(2, faults=plan)
        for c in (base, slow):
            c.compute(0, 1000)
            c.compute(1, 1000)
        assert slow.clocks[0] == base.clocks[0]
        assert slow.clocks[1] == pytest.approx(2.5 * base.clocks[1])
        assert slow.elapsed() > base.elapsed()

    def test_empty_plan_is_free(self):
        from repro.parallel import FaultPlan

        base = SimulatedCluster(2)
        with_plan = SimulatedCluster(2, faults=FaultPlan.none())
        for c in (base, with_plan):
            c.compute(0, 500)
            c.reduce(24)
        assert with_plan.elapsed() == base.elapsed()
        assert with_plan.report() == base.report()

    def test_fault_delay_kind_accounted(self):
        c = SimulatedCluster(2, record=True)
        c.delay(0, 0.25, kind="fault")
        assert c.fault_time == 0.25
        assert c.report()["fault_time"] == 0.25
        assert (0, 0.0, 0.25, "fault") in c.trace
        # elapsed advances with the faulted rank's clock
        assert c.elapsed() == 0.25


class TestBadArgumentsLeaveNoTrace:
    """A refused call raises before it touches a clock, an account, a
    counter or the trace, at one rank as at several."""

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("call", [
        lambda c: c.delay(0, 1.0, kind="bogus"),
        lambda c: c.delay(0, -1.0),
        lambda c: c.compute(0, -1.0),
        lambda c: c.send(0, c.p - 1, -1.0),
        lambda c: c.reduce(-1.0),
        lambda c: c.reduce(-1.0, topology="linear"),
        lambda c: c.reduce_data([1.0] * c.p, lambda a, b: a + b, -1.0),
        lambda c: c.bcast(-1.0),
        lambda c: c.allreduce(-1.0),
        lambda c: c.alltoall(-1.0),
        lambda c: c.halo_exchange(-1.0),
    ], ids=["delay-kind", "delay", "compute", "send", "reduce",
            "reduce-linear", "reduce_data", "bcast", "allreduce", "alltoall",
            "halo_exchange"])
    def test_refused_before_state_changes(self, p, call):
        c = SimulatedCluster(p, MachineSpec(flop_time=1e-6), record=True)
        c.compute(0, 100)
        clocks, report, trace = c.clocks.copy(), c.report(), list(c.trace)
        with pytest.raises(ValidationError):
            call(c)
        assert c.clocks.tolist() == clocks.tolist()
        assert c.report() == report
        assert c.trace == trace

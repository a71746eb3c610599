"""ASCII Gantt rendering of cluster traces."""

import pytest

from repro.errors import ValidationError
from repro.parallel import MachineSpec, SimulatedCluster
from repro.perf import render_gantt


class TestTraceRecording:
    def test_disabled_by_default(self):
        c = SimulatedCluster(2)
        c.compute(0, 100)
        assert c.trace == []

    def test_compute_event_recorded(self):
        c = SimulatedCluster(2, record=True)
        c.compute(1, 1000)
        assert c.trace == [(1, 0.0, pytest.approx(1e-5), "compute")]

    def test_send_records_idle_and_comm(self):
        c = SimulatedCluster(2, MachineSpec(flop_time=1e-6), record=True)
        c.compute(0, 1000)  # rank 0 busy until 1e-3
        c.send(0, 1, 8)
        kinds = [(r, k) for r, _, _, k in c.trace]
        assert (1, "idle") in kinds  # rank 1 waited for rank 0
        assert (0, "comm") in kinds and (1, "comm") in kinds

    def test_trace_times_consistent_with_clocks(self):
        c = SimulatedCluster(4, record=True)
        c.compute_all([100, 200, 300, 400])
        c.reduce(24)
        c.barrier()
        for rank, t0, t1, _ in c.trace:
            assert 0.0 <= t0 < t1 <= c.elapsed() + 1e-15


class TestRendering:
    def test_row_per_rank_and_legend(self):
        c = SimulatedCluster(3, record=True)
        c.compute_all([500, 500, 500])
        out = render_gantt(c, width=40)
        lines = out.splitlines()
        assert len(lines) == 5  # 3 ranks + scale + legend
        assert all(line.startswith("rank") for line in lines[:3])
        assert "# compute" in lines[-1]

    def test_compute_renders_as_hash(self):
        c = SimulatedCluster(1, record=True)
        c.compute(0, 1000)
        out = render_gantt(c, width=10, show_scale=False)
        assert "##########" in out

    def test_mixed_activities_visible(self):
        c = SimulatedCluster(2, MachineSpec(flop_time=1e-6, alpha=1e-3),
                             record=True)
        c.compute(0, 1000)  # 1 ms compute
        c.send(0, 1, 8)     # ≥1 ms comm
        out = render_gantt(c, width=20, show_scale=False)
        row0 = out.splitlines()[0]
        assert "#" in row0 and "~" in row0
        row1 = out.splitlines()[1]
        assert "." in row1  # rank 1 idled while rank 0 computed

    def test_requires_recording(self):
        c = SimulatedCluster(2)
        with pytest.raises(ValidationError, match="record=True"):
            render_gantt(c)

    def test_empty_trace_renders_blank(self):
        c = SimulatedCluster(2, record=True)
        out = render_gantt(c, width=8)
        assert "|        |" in out

    def test_width_validated(self):
        c = SimulatedCluster(1, record=True)
        with pytest.raises(ValidationError):
            render_gantt(c, width=0)


class TestEngineSignatures:
    def test_mc_is_compute_dominated(self):
        from repro.engine import ParallelMCPricer
        from repro.workloads import basket_workload

        w = basket_workload(4)
        r = ParallelMCPricer(100_000, seed=1, record=True).price(
            w.model, w.payoff, w.expiry, 4
        )
        out = render_gantt(r.meta["cluster"], width=60, show_scale=False)
        assert out.count("#") > 0.9 * out.count("#") + out.count("~")  # mostly #
        assert out.count("#") >= 200  # 4 rows × ≥50 compute columns

    def test_pde_alternates_compute_and_comm(self):
        from repro.engine import ParallelPDEPricer
        from repro.workloads import spread_workload

        w = spread_workload()
        r = ParallelPDEPricer(n_space=64, n_time=6, record=True).price(
            w.model, w.payoff, w.expiry, 4
        )
        out = render_gantt(r.meta["cluster"], width=60, show_scale=False)
        row0 = out.splitlines()[0]
        # Both phases visible, multiple alternations.
        assert row0.count("#") > 5 and row0.count("~") > 5
        transitions = sum(
            1 for a, b in zip(row0, row0[1:]) if a == "#" and b == "~"
        )
        assert transitions >= 3

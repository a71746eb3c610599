"""Data-carrying collectives: values follow the costed message schedule."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.mc import SampleStats
from repro.parallel import MachineSpec, SimulatedCluster


class TestReduceData:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 16])
    @pytest.mark.parametrize("topology", ["tree", "linear"])
    def test_integer_sum_any_p(self, p, topology):
        c = SimulatedCluster(p)
        payloads = list(range(1, p + 1))
        out = c.reduce_data(payloads, lambda a, b: a + b, 8, topology=topology)
        assert out == p * (p + 1) // 2

    def test_costs_match_cost_only_reduce(self):
        spec = MachineSpec()
        for topology in ("tree", "linear"):
            a = SimulatedCluster(8, spec)
            a.reduce(24, topology=topology)
            b = SimulatedCluster(8, spec)
            b.reduce_data([0] * 8, lambda x, y: x + y, 24, topology=topology)
            assert b.elapsed() == pytest.approx(a.elapsed(), rel=1e-12)
            assert b.messages == a.messages

    def test_sample_stats_merge_through_tree(self):
        rng = np.random.default_rng(0)
        parts = [SampleStats.from_values(rng.normal(size=100)) for _ in range(6)]
        c = SimulatedCluster(6)
        merged = c.reduce_data(parts, lambda a, b: a.merge(b), 24)
        whole = SampleStats()
        for pstat in parts:
            whole = whole.merge(pstat)
        assert merged.n == whole.n
        assert merged.total == pytest.approx(whole.total, rel=1e-12)

    def test_nonzero_root(self):
        c = SimulatedCluster(5)
        out = c.reduce_data([1, 2, 3, 4, 5], lambda a, b: a + b, 8, root=3)
        assert out == 15
        assert c.clocks[3] == c.elapsed()

    def test_noncommutative_combine_order_is_deterministic(self):
        # String concatenation exposes the combination order; rerunning
        # produces the identical result.
        c1 = SimulatedCluster(4)
        c2 = SimulatedCluster(4)
        payloads = ["a", "b", "c", "d"]
        out1 = c1.reduce_data(list(payloads), lambda a, b: a + b, 8)
        out2 = c2.reduce_data(list(payloads), lambda a, b: a + b, 8)
        assert out1 == out2
        assert sorted(out1) == payloads  # every element exactly once

    def test_payload_count_validated(self):
        with pytest.raises(ValidationError):
            SimulatedCluster(3).reduce_data([1, 2], lambda a, b: a + b, 8)

    def test_topology_validated(self):
        with pytest.raises(ValidationError):
            SimulatedCluster(2).reduce_data([1, 2], lambda a, b: a + b, 8,
                                            topology="mesh")


class TestDelay:
    def test_advances_one_clock(self):
        c = SimulatedCluster(3)
        c.delay(1, 0.5)
        assert c.clocks[1] == pytest.approx(0.5)
        assert c.clocks[0] == 0.0
        assert c.comm_time == pytest.approx(0.5)

    def test_account_kinds(self):
        c = SimulatedCluster(1)
        c.delay(0, 0.1, kind="compute")
        assert c.compute_time == pytest.approx(0.1)
        with pytest.raises(ValidationError):
            c.delay(0, 0.1, kind="gpu")

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            SimulatedCluster(1).delay(0, -1.0)


class TestReductionPermutationInvariance:
    """Reduction results must not depend on which rank holds which shard —
    the property that lets the resilience layer re-map work after faults
    without changing the answer."""

    @pytest.mark.parametrize("p", range(1, 17))
    @pytest.mark.parametrize("topology", ["tree", "linear"])
    def test_integer_sum_invariant_under_rank_permutation(self, p, topology):
        rng = np.random.default_rng(p)
        payloads = rng.integers(-1000, 1000, size=p).tolist()
        base = SimulatedCluster(p).reduce_data(
            list(payloads), lambda a, b: a + b, 8, topology=topology)
        for _ in range(3):
            perm = rng.permutation(p)
            shuffled = [payloads[i] for i in perm]
            out = SimulatedCluster(p).reduce_data(
                shuffled, lambda a, b: a + b, 8, topology=topology)
            assert out == base  # exact: integer addition is associative

    @pytest.mark.parametrize("p", range(2, 17, 3))
    def test_sample_stats_invariant_under_rank_permutation(self, p):
        rng = np.random.default_rng(p)
        parts = [SampleStats.from_values(rng.normal(size=50 + r))
                 for r in range(p)]
        base = SimulatedCluster(p).reduce_data(
            list(parts), lambda a, b: a.merge(b), 24)
        perm = rng.permutation(p)
        out = SimulatedCluster(p).reduce_data(
            [parts[i] for i in perm], lambda a, b: a.merge(b), 24)
        # float merge order differs ⇒ approximate, but tight
        assert out.n == base.n
        assert out.total == pytest.approx(base.total, rel=1e-12)
        assert out.mean == pytest.approx(base.mean, rel=1e-12)
        assert out.variance == pytest.approx(base.variance, rel=1e-9)

    @pytest.mark.parametrize("p", range(1, 17))
    def test_tree_and_linear_topologies_agree_exactly_on_ints(self, p):
        payloads = list(range(p))
        tree = SimulatedCluster(p).reduce_data(
            list(payloads), lambda a, b: a + b, 8, topology="tree")
        linear = SimulatedCluster(p).reduce_data(
            list(payloads), lambda a, b: a + b, 8, topology="linear")
        assert tree == linear == p * (p - 1) // 2

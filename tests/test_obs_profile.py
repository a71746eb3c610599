"""Sampling profiler: collapsed stacks, label attribution, lifecycle."""

import sys
import time

import pytest

from repro.errors import ValidationError
from repro.obs import SamplingProfiler, collapse_frames


def _burn(seconds: float) -> None:
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        sum(i * i for i in range(64))


class TestCollapse:
    def test_root_to_leaf_order(self):
        def inner():
            return collapse_frames(sys._getframe())

        def outer():
            return inner()

        stack = outer()
        parts = stack.split(";")
        assert parts[-1].endswith(":inner")
        assert parts[-2].endswith(":outer")
        assert all(";" not in p for p in parts)

    def test_depth_truncation_keeps_leaves(self):
        def recurse(n):
            if n == 0:
                return collapse_frames(sys._getframe())
            return recurse(n - 1)

        stack = recurse(200)
        parts = stack.split(";")
        assert len(parts) == 64
        assert parts[-1].endswith(":recurse")  # leaf end survives


class TestLabels:
    def test_record_prefixes_active_label(self):
        prof = SamplingProfiler()
        prof._record("m:f")
        with prof.profile("stage"):
            prof._record("m:f")
            with prof.profile("sub"):
                prof._record("m:f")
        prof.stop()
        assert prof.samples == {"m:f": 1, "stage;m:f": 1,
                                "stage;sub;m:f": 1}
        assert prof.n_samples == 3

    def test_empty_label_rejected(self):
        with pytest.raises(ValidationError):
            with SamplingProfiler().profile(""):
                pass

    def test_profile_autostarts_and_label_restored(self):
        prof = SamplingProfiler(0.001)
        assert prof._thread is None
        with prof.profile("hot"):
            assert prof._thread is not None
            _burn(0.05)
        assert prof._label is None
        prof.stop()
        assert prof._thread is None
        labeled = sum(c for s, c in prof.samples.items()
                      if s.startswith("hot;"))
        assert labeled > 0


class TestExport:
    def test_collapsed_format_and_ordering(self):
        prof = SamplingProfiler()
        prof._record("a:x")
        prof._record("a:x")
        prof._record("b:y")
        text = prof.collapsed()
        assert text.splitlines() == ["a:x 2", "b:y 1"]
        assert prof.top(1) == [("a:x", 2)]
        prof.clear()
        assert prof.collapsed() == "" and prof.n_samples == 0

    def test_write_collapsed(self, tmp_path):
        prof = SamplingProfiler()
        prof._record("a:x")
        path = prof.write_collapsed(tmp_path / "out.collapsed")
        assert path.read_text() == "a:x 1\n"

    def test_interval_validation(self):
        with pytest.raises(ValidationError):
            SamplingProfiler(0.0)


class TestLifecycle:
    def test_start_stop_idempotent_and_context_manager(self):
        prof = SamplingProfiler(0.001)
        prof.start()
        thread = prof._thread
        assert prof.start()._thread is thread  # second start is a no-op
        prof.stop()
        prof.stop()
        with SamplingProfiler(0.001) as p2:
            _burn(0.02)
        assert p2._thread is None
        assert p2.n_samples >= 0  # sampling is best-effort under the GIL

    def test_runner_attachment_labels_execute_stage(self):
        from repro.engine import ParallelMCPricer
        from repro.workloads import basket_workload

        w = basket_workload(2)
        pricer = ParallelMCPricer(60_000, seed=1)
        prof = SamplingProfiler(0.001)
        pricer.profiler = prof
        for _ in range(3):
            pricer.price(w.model, w.payoff, w.expiry, 4)
        prof.stop()
        assert prof.n_samples > 0
        labeled = [s for s in prof.samples if s.startswith("mc.execute;")]
        assert labeled, f"no mc.execute-labeled stacks in {prof.samples}"

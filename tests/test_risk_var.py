"""Properties of the sort-based VaR/ES estimators and the revaluation
sweep plumbing.

The estimator invariants here are *exact* (not statistical), because the
estimators are order statistics: ``ES ≥ VaR`` everywhere, permutation
invariance, and monotonicity of VaR both in the confidence level and
under a uniform extra down-shock of the book. The sweep tests pin the
cache hit/miss *structure* of a bumped-book revaluation — every axis
ladder leads with the identity scenario, so hits and misses split in
exactly known counts through the shared :class:`PriceCache`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.risk.scenarios import (SWEEP_AXES, Scenario, axis_sweep,
                                  horizon_scenarios)
from repro.risk.var import (RiskConfig, RiskReport, hedged_pnl,
                            portfolio_deltas, revalue_book, var_es)
from repro.serve.service import PricingService
from repro.workloads.generators import strike_strip

pnls = st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=60)
levels = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)


class TestVarEsInvariants:
    @given(pnl=pnls, level=levels)
    def test_es_dominates_var(self, pnl, level):
        var, es = var_es(pnl, level)
        assert es >= var

    @given(pnl=pnls, level=levels, seed=st.integers(0, 2**31 - 1))
    def test_permutation_invariance(self, pnl, level, seed):
        shuffled = list(pnl)
        np.random.default_rng(seed).shuffle(shuffled)
        assert var_es(shuffled, level) == var_es(pnl, level)

    @given(pnl=pnls, lo=levels, hi=levels)
    def test_var_monotone_in_level(self, pnl, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        assert var_es(pnl, lo)[0] <= var_es(pnl, hi)[0]

    @given(pnl=pnls, level=levels,
           shock=st.floats(min_value=0.0, max_value=1e5, allow_nan=False))
    def test_var_monotone_under_uniform_down_shock(self, pnl, level, shock):
        """An extra uniform loss on every scenario can only raise VaR/ES."""
        worse = [x - shock for x in pnl]
        var, es = var_es(pnl, level)
        var_w, es_w = var_es(worse, level)
        assert var_w >= var and es_w >= es

    def test_validation(self):
        with pytest.raises(ValidationError):
            var_es([1.0], 0.0)
        with pytest.raises(ValidationError):
            var_es([1.0], 1.0)
        with pytest.raises(ValidationError):
            var_es([], 0.95)


class TestVarEsOrderStatistic:
    """VaR is ``L_(⌈αn⌉)`` for the *decimal* level: ``0.55·100`` is 55,
    though the float product 55.000000000000007 has ceiling 56."""

    NS = (10, 20, 50, 64, 100, 128, 200, 250, 500, 1000)
    LEVELS = [i / 1000 for i in range(1, 1000)]

    @staticmethod
    def _k(level, n):
        return math.ceil(Fraction(str(level)) * n)

    def test_k_is_the_ceiling_of_the_decimal_level(self):
        moved = []
        for n in self.NS:
            pnl = -np.arange(1.0, n + 1.0)[::-1]   # losses 1..n: L_(k) = k
            for level in self.LEVELS:
                k = self._k(level, n)
                var, es = var_es(pnl, level)
                assert var == float(k), (level, n)
                assert es == float(np.mean(np.arange(k, n + 1.0)))
                if math.ceil(level * n) != k:
                    moved.append((level, n))
        assert len(moved) == 17
        assert {(0.55, 100), (0.07, 100), (0.14, 50)} <= set(moved)

    def test_the_risk_levels_never_moved(self):
        """The pinned sweeps' levels pick the float ceiling's statistic at
        every n up to 5 000, so their reports replay."""
        for level in (0.9, 0.95, 0.975, 0.99, 0.995, 0.999):
            assert all(math.ceil(level * n) == self._k(level, n)
                       for n in range(1, 5_001)), level


class TestSweepMonotonicity:
    def test_down_scaled_spots_raise_var_exactly(self):
        """Scaling every scenario's spot factors down revalues each call
        book lower *pathwise* (common random numbers), so VaR and ES rise
        for every level — an exact, not statistical, comparison."""
        book = strike_strip(2, dim=2)
        base = [Scenario(label=f"s{i}", spot_factors=(f, f))
                for i, f in enumerate((1.04, 0.99, 0.95, 1.01, 0.92))]
        worse = [Scenario(label=s.label,
                          spot_factors=tuple(0.97 * f
                                             for f in s.spot_factors))
                 for s in base]
        kw = dict(n_paths=400, seed=9, levels=(0.6, 0.9))
        rep_a = revalue_book(book, base, **kw)
        rep_b = revalue_book(book, worse, **kw)
        for lv in kw["levels"]:
            assert rep_b.levels[lv][0] >= rep_a.levels[lv][0]
            assert rep_b.levels[lv][1] >= rep_a.levels[lv][1]


class TestHedgedPnl:
    def _report(self, values, base):
        return RiskReport(base_value=base, values=tuple(values),
                          levels={}, n_contracts=1, scenarios_digest="x",
                          engine="mc", seed=0)

    def test_matches_manual_arithmetic(self):
        report = self._report([11.0, 8.0, 9.5], base=10.0)
        scenarios = [Scenario(label=f"s{i}", spot_factors=fs)
                     for i, fs in enumerate(((1.1, 1.0), (0.9, 0.95),
                                             (1.0, 1.02)))]
        deltas, spots = np.array([0.5, 0.25]), np.array([100.0, 80.0])
        got = hedged_pnl(report, deltas, spots, scenarios)
        for g, pnl, s in zip(got, report.pnl, scenarios):
            hedge = sum(d * sp * (f - 1.0) for d, sp, f in
                        zip(deltas, spots, s.spot_factors))
            assert g == pytest.approx(pnl - hedge)

    def test_hedge_shrinks_spot_driven_tails(self):
        book = strike_strip(4, dim=2)
        scenarios = horizon_scenarios(book[0].model, 12, 10.0 / 252.0, seed=4)
        with PricingService(max_batch=4) as service:
            report = revalue_book(book, scenarios, n_paths=400, seed=4,
                                  levels=(0.9,), service=service)
            deltas = portfolio_deltas(book, service=service, n_paths=400,
                                      seed=4)
        hedged = hedged_pnl(report, deltas, book[0].model.spots, scenarios)
        # Pure spot shocks, delta-hedged: the tail must shrink.
        assert var_es(hedged, 0.9)[0] < var_es(report.pnl, 0.9)[0]

    def test_validation(self):
        report = self._report([1.0, 2.0], base=0.0)
        scenarios = [Scenario(label="a"), Scenario(label="b")]
        with pytest.raises(ValidationError):
            hedged_pnl(report, np.ones(2), np.ones(2), scenarios[:1])
        with pytest.raises(ValidationError):
            hedged_pnl(report, np.ones(3), np.ones(2), scenarios)


class TestConfigAndOracleValidation:
    def test_risk_config_validation(self):
        with pytest.raises(ValidationError):
            RiskConfig(generator="bootstrap")
        with pytest.raises(ValidationError):
            RiskConfig(n_scenarios=0)
        with pytest.raises(ValidationError):
            RiskConfig(horizon=0.0)

    def test_build_scenarios_covers_every_generator(self):
        from repro.risk.var import build_scenarios

        model = strike_strip(1, dim=2)[0].model
        for gen, n in (("stress", 6), ("horizon", 6), ("historical", 7),
                       ("axes", 15)):
            cfg = RiskConfig(generator=gen, n_scenarios=6)
            assert len(build_scenarios(cfg, model)) == n

    def test_analytic_oracle_validation(self):
        from repro.risk.analytic import (analytic_es, analytic_var,
                                         shock_moments)

        model = strike_strip(1, dim=2)[0].model
        with pytest.raises(ValidationError):
            analytic_var(model, (0.5, 0.5), (100.0,), 1.0, 0.04, 1.0)
        with pytest.raises(ValidationError):
            analytic_es(model, (0.5, 0.5), (100.0,), 1.0, 0.04, 0.0)
        with pytest.raises(ValidationError):
            shock_moments(model, (0.5, 0.5, 0.5), 0.04)
        with pytest.raises(ValidationError):
            shock_moments(model, (-1.0, 2.0), 0.04)


class TestRevalueBook:
    def test_validation(self):
        book = strike_strip(2, dim=2)
        with pytest.raises(ValidationError):
            revalue_book([], [Scenario(label="s")])
        with pytest.raises(ValidationError):
            revalue_book(book, [])
        with pytest.raises(ValidationError):
            revalue_book(book, [Scenario(label="s")], levels=(1.5,))

    def test_ledger_record_shape(self, tmp_path):
        from repro.obs import RunLedger, read_ledger

        path = tmp_path / "risk.jsonl"
        revalue_book(strike_strip(2, dim=2),
                     [Scenario(label="s", spot_factors=(0.95,))],
                     n_paths=300, seed=1, levels=(0.9,),
                     ledger=RunLedger(path))
        records = list(read_ledger(path))
        risk = [r for r in records if r.kind == "risk"]
        assert len(risk) == 1
        extra = risk[0].extra
        assert extra["n_scenarios"] == 1 and extra["n_contracts"] == 2
        assert {"var", "es", "hit_rate", "pnl_digest",
                "scenarios"} <= set(extra)
        # the service's own per-batch serve records ride along
        assert any(r.kind == "serve" for r in records)


class TestCacheStructure:
    def test_axis_sweep_hit_miss_split_is_exact(self):
        """Axis ladders lead with the identity scenario: after the base
        pass primes the cache, each of the three axis-base scenarios is
        pure hits and every bumped point is pure misses."""
        n = 3
        book = strike_strip(n, dim=2)
        sweep = axis_sweep()          # 3 axes x (base + 4 magnitudes)
        metrics = MetricsRegistry()
        report = revalue_book(book, sweep, n_paths=300, seed=2,
                              levels=(0.9,), metrics=metrics)
        n_axes, n_bumped = len(SWEEP_AXES), len(sweep) - len(SWEEP_AXES)
        assert report.cache_hits == n_axes * n
        assert report.cache_misses == (1 + n_bumped) * n
        assert metrics.sum_counters("serve.cache_hits") == n_axes * n
        assert metrics.sum_counters("serve.cache_misses") == (1 + n_bumped) * n
        assert report.hit_rate == pytest.approx(
            n_axes / (1 + n_axes + n_bumped))

    def test_repeated_sweep_through_shared_service_is_all_hits(self):
        from repro.serve import PriceCache, PricingService

        book = strike_strip(2, dim=2)
        sweep = axis_sweep()
        cache = PriceCache(64)
        with PricingService(cache=cache, max_batch=len(book)) as service:
            first = revalue_book(book, sweep, n_paths=300, seed=2,
                                 levels=(0.9,), service=service)
            second = revalue_book(book, sweep, n_paths=300, seed=2,
                                  levels=(0.9,), service=service)
        assert second.cache_misses == 0
        assert second.cache_hits == len(book) * (len(sweep) + 1)
        assert first.pnl_digest() == second.pnl_digest()

    def test_per_axis_metrics_counters(self):
        metrics = MetricsRegistry()
        report = revalue_book(strike_strip(2, dim=2),
                              axis_sweep(),
                              n_paths=300, seed=2, levels=(0.9,),
                              metrics=metrics)
        assert metrics.counter("risk.scenarios").value == report.n_scenarios
        assert metrics.counter("risk.contracts").value == \
            2 * report.n_scenarios
        hist = metrics.histogram("risk.revalue_s")
        assert hist.count == report.n_scenarios


class TestRegistrySnapshotReplays:
    """A seeded ``revalue_book`` run leaves the same metrics registry
    however the cache and the service look their series up: these digests
    were recorded with every series looked up by name on each write."""

    #: sha256 of :meth:`_digest`'s text, per variant.
    SNAPSHOTS = {
        "own": (
            "d2847b9e9f1f37f2e05cd22a76d6febae47d7f9ebe9c6e8fae1a7d8ea57de47d"),
        "attached": (
            "9cc078629c48b6562af9dd3010bb8a165f0eea403de0b54ad95622ef351cd9bf"),
    }

    @staticmethod
    def _digest(metrics):
        import hashlib
        import json

        snap = metrics.snapshot()
        # Wall-clock histograms keep only their count; every other series
        # is kept whole.
        for key, hist in snap["histograms"].items():
            if key.split("{")[0] in ("serve.batch_latency_s", "task_latency",
                                     "risk.revalue_s"):
                snap["histograms"][key] = {"count": hist["count"]}
        text = json.dumps(snap, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    @staticmethod
    def _run(variant):
        from repro.risk.scenarios import stress_scenarios
        from repro.serve import PriceCache, PricingService

        metrics = MetricsRegistry()
        book = strike_strip(6, dim=2)
        scenarios = stress_scenarios(2, 5, seed=31) + axis_sweep()[:3]
        kw = dict(n_paths=400, seed=7, levels=(0.9,), metrics=metrics)
        if variant == "own":
            revalue_book(book, scenarios, **kw)
            revalue_book(book, scenarios[:4], **kw)
            return metrics
        # A cache built without a registry gets the service's: a small one,
        # so the run also evicts.
        cache = PriceCache(10)
        with PricingService(cache=cache, max_batch=4,
                            metrics=metrics) as service:
            revalue_book(book, scenarios, service=service, **kw)
            revalue_book(book, scenarios[:2], service=service, **kw)
        assert cache.evictions > 0
        return metrics

    @pytest.mark.parametrize("variant", sorted(SNAPSHOTS))
    def test_snapshot_replays(self, variant):
        metrics = self._run(variant)
        assert self._digest(metrics) == self.SNAPSHOTS[variant]
        assert self._digest(self._run(variant)) == self._digest(metrics)

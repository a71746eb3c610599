"""The risk↔gateway bridge: seeded sweeps as lane-tagged traffic.

Covers the shocked-contract book for the load generator, the
deterministic sweep schedule, the virtual-time drive (nonzero cache
hits, a ``kind="risk"`` ledger record per run, bitwise replay), the
asyncio :class:`ShardedGateway` actually serving sweep requests, and the
``repro risk`` / ``repro gateway --book risk`` CLI entry points.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cli import main
from repro.errors import ValidationError
from repro.gateway import GatewayRequest, ShardedGateway
from repro.gateway.loadgen import LoadgenConfig, build_book
from repro.obs import read_ledger
from repro.obs.ledger import set_active_ledger
from repro.risk.bridge import (risk_book, run_risk_sweep, sweep_requests,
                               sweep_schedule)
from repro.risk.scenarios import stress_scenarios
from repro.serve.service import PriceQuote, price_request
from repro.verify.determinism import float_bits
from repro.workloads.generators import strike_strip


class TestRiskBook:
    def test_shapes_and_identity_prefix(self):
        book = risk_book(10, seed=3)
        assert len(book) == 10
        base = strike_strip(4, dim=2)
        # scenario 0 is the identity: the first 4 contracts are the
        # unshocked ladder, bitwise.
        for got, want in zip(book[:4], base):
            assert got.payoff.strike == want.payoff.strike
            assert got.model.spots.tobytes() == want.model.spots.tobytes()
        # later groups are shocked copies of the same ladder
        assert book[4].model.spots.tobytes() != base[0].model.spots.tobytes()
        assert all(w.name.startswith("risk-") for w in book)

    def test_loadgen_accepts_risk_book(self):
        cfg = LoadgenConfig(book="risk", n_contracts=8, seed=5)
        book = build_book(cfg)
        assert len(book) == 8
        with pytest.raises(ValidationError):
            LoadgenConfig(book="hedge")

    def test_deterministic_in_seed(self):
        a, b = risk_book(12, seed=9), risk_book(12, seed=9)
        assert [w.name for w in a] == [w.name for w in b]
        assert all(x.model.spots.tobytes() == y.model.spots.tobytes()
                   for x, y in zip(a, b))


class TestSweepSchedule:
    def _tagged(self, n_contracts=3, n_scenarios=2):
        book = strike_strip(n_contracts, dim=2)
        scenarios = stress_scenarios(2, n_scenarios, seed=1)
        return book, scenarios, sweep_requests(book, scenarios, n_paths=400)

    def test_lanes_and_ordering(self):
        book, scenarios, tagged = self._tagged()
        n = len(book)
        assert [lane for lane, _ in tagged[:n]] == ["interactive"] * n
        assert all(lane == "bulk" for lane, _ in tagged[n:])
        assert len(tagged) == n * (len(scenarios) + 1)
        # common random numbers: every request shares one seed
        assert len({r.seed for _, r in tagged}) == 1

    def test_schedule_spacing_and_repeats(self):
        _, _, tagged = self._tagged()
        schedule = sweep_schedule(tagged, rate=100.0, repeats=2)
        assert len(schedule) == 2 * len(tagged)
        arrivals = [t for t, _ in schedule]
        assert arrivals == sorted(arrivals)
        assert arrivals[1] - arrivals[0] == pytest.approx(0.01)
        # bulk deadlines are looser than interactive ones
        deadlines = {g.lane: g.deadline_s for _, g in schedule}
        assert deadlines["bulk"] > deadlines["interactive"]

    def test_empty_book_rejected(self):
        with pytest.raises(ValidationError):
            sweep_requests([], stress_scenarios(2, 1))


class TestRunRiskSweep:
    def test_hits_record_and_bitwise_replay(self, tmp_path):
        book = strike_strip(3, dim=2)
        scenarios = stress_scenarios(2, 4, seed=2)
        path = tmp_path / "sweep.jsonl"

        def one():
            return run_risk_sweep(book, scenarios, n_shards=2, n_paths=400,
                                  seed=2, priced=True)

        set_active_ledger(path)
        try:
            result = one()
        finally:
            set_active_ledger(None)
        assert result.completed > 0
        assert sum(result.cache_hits) > 0   # repeated pass is cache-hot
        records = list(read_ledger(path))
        kinds = [r.kind for r in records]
        assert kinds.count("risk") == 1 and "gateway" in kinds
        risk = next(r for r in records if r.kind == "risk")
        assert risk.extra["scenarios_per_s"] > 0
        assert 0 < risk.extra["hit_rate"] <= 1
        assert risk.extra["n_scenarios"] == 4
        replay = one()
        assert replay.price_stream_digest() == result.price_stream_digest()
        assert replay.decision_log_digest() == result.decision_log_digest()


class TestAsyncGatewayServesSweep:
    def test_quotes_bitwise_match_direct_pricing(self):
        book = strike_strip(2, dim=2)
        scenarios = stress_scenarios(2, 2, seed=4)
        tagged = sweep_requests(book, scenarios, n_paths=400)

        async def run():
            async with ShardedGateway(n_shards=2) as gw:
                greqs = [GatewayRequest(request=r, lane=lane, deadline_s=60.0)
                         for lane, r in tagged]
                return await gw.price_many(greqs)

        replies = asyncio.run(run())
        assert all(isinstance(q, PriceQuote) for q in replies)
        for (_, req), quote in zip(tagged, replies):
            assert float_bits(quote.price) == \
                float_bits(price_request(req).price)


class TestCli:
    def test_repro_risk_smoke(self, tmp_path, capsys):
        path = tmp_path / "risk.jsonl"
        rc = main(["risk", "--scenarios", "4", "--paths", "300",
                   "--generator", "axes", "--ledger", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "VaR / ES" in out and "cache-hot" in out
        assert any(r.kind == "risk" for r in read_ledger(path))

    def test_repro_risk_rejects_bad_levels(self, capsys):
        assert main(["risk", "--levels", "ninety"]) == 2

    def test_repro_gateway_book_risk(self, tmp_path, capsys):
        path = tmp_path / "gw.jsonl"
        rc = main(["gateway", "--book", "risk", "--contracts", "8",
                   "--paths", "300", "--duration", "0.5", "--shards", "2",
                   "--ledger", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "risk     :" in out
        records = list(read_ledger(path))
        assert [r.kind for r in records].count("risk") == 1
        risk = next(r for r in records if r.kind == "risk")
        assert risk.extra["hit_rate"] > 0   # repeated-book traffic forced

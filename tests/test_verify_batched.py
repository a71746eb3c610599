"""The batched corpus replay: fused kernels vs the oracle's cells.

Unit tests cover the decoy construction and the failure mode (a perturbed
reference cell must be flagged — the gate is live, not vacuous); the
full-corpus replay is marked ``oracle`` with the other corpus-priced
suites so the CI verify lane runs it.
"""

import inspect

import pytest

from repro.errors import ValidationError
from repro.payoffs import Call, CallOnMax
from repro.verify import run_batched_replay, run_determinism
from repro.verify.batched import BATCHED_FAMILIES, decoy_payoff
from repro.verify.contracts import default_corpus
from repro.verify.oracle import EngineCell


class TestDecoy:
    def test_decoy_preserves_draw_shape(self):
        payoff = CallOnMax(100.0)
        other = decoy_payoff(payoff)
        assert type(other) is CallOnMax
        assert other.dim == payoff.dim
        assert other.is_path_dependent == payoff.is_path_dependent
        assert other.strike == payoff.strike + 1.0
        assert payoff.strike == 100.0  # original untouched

    def test_strikeless_payoff_rejected(self):
        class Weird:
            pass

        with pytest.raises(ValidationError, match="strike"):
            decoy_payoff(Weird())


class TestReplayHarness:
    def test_perturbed_cell_is_flagged(self):
        """The replay must detect a reference that moved by one ulp — feed
        it a deliberately corrupted oracle cell and demand a FAIL."""
        import math

        corpus = [c for c in default_corpus()
                  if c.name == "geometric-basket-d4"]
        good = run_batched_replay(corpus)
        checked = [r for r in good if not r.skipped]
        assert checked and all(r.ok for r in checked)

        target = checked[0]
        price = target.detail["price"]
        bad_cell = EngineCell(target.engine,
                              math.nextafter(price, math.inf),
                              0.0, {"stderr": 0.0})
        bad = run_batched_replay(
            corpus, cells_by_case={corpus[0].name: {target.engine: bad_cell}})
        flagged = [r for r in bad if r.engine == target.engine]
        assert flagged and not flagged[0].ok

    def test_cells_reuse_matches_recompute(self):
        from repro.verify.oracle import run_oracle

        corpus = [c for c in default_corpus() if c.name == "rainbow-max-call"]
        oracle = run_oracle(corpus)
        reused = run_batched_replay(corpus, cells_by_case=oracle.cells)
        fresh = run_batched_replay(corpus)
        assert [(r.case, r.engine, r.ok, r.skipped) for r in reused] == \
               [(r.case, r.engine, r.ok, r.skipped) for r in fresh]

    def test_unknown_family_not_replayed(self):
        assert set(BATCHED_FAMILIES) == {"mc", "qmc", "lattice"}


@pytest.mark.oracle
class TestFullCorpusReplay:
    def test_every_batchable_cell_replays_bitwise(self):
        results = run_batched_replay()
        failures = [r for r in results if not r.ok]
        assert not failures, "\n".join(str(r) for r in failures)
        # Coverage shape: every mc/qmc cell replays; only the 1-d lattice
        # cells (CRR recursion, no BEG target) are skipped.
        skipped = [r for r in results if r.skipped]
        assert all(r.engine == "lattice" for r in skipped)
        replayed = [(r.case, r.engine) for r in results if not r.skipped]
        for case in default_corpus():
            for family in ("mc", "qmc"):
                if family in case.engines:
                    assert (case.name, family) in replayed


class TestNoBatchedToggle:
    def test_strip_batching_always_runs(self):
        names = {r.check for r in run_determinism()}
        assert "strip-batching" in names
        assert "batched" not in inspect.signature(run_determinism).parameters

    def test_cli_flags_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        # The fused replay and the strip-batching check always run.
        for flag in ("--batched", "--no-batched"):
            with pytest.raises(SystemExit):
                parser.parse_args(["verify", flag])
        assert not hasattr(parser.parse_args(["verify"]), "batched")
        args = parser.parse_args(["serve", "--book", "strip",
                                  "--min-strip", "4"])
        assert args.book == "strip" and args.min_strip == 4
        # Fusion is the service's own decision, not an operator's flag.
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--batched"])

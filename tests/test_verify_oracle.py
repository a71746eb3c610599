"""Tests for the differential oracle harness (repro.verify.oracle)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.analytic
from repro.errors import ValidationError
from repro.market import MultiAssetGBM
from repro.payoffs import Call
from repro.verify.contracts import (VerifyCase, canonical_json, config_hash,
                                    default_corpus)
from repro.verify.oracle import (Discrepancy, EngineCell, compare_cells,
                                 run_case, run_oracle)
from repro.workloads.generators import Workload


def _call_case(**engines) -> VerifyCase:
    model = MultiAssetGBM.single(100.0, 0.2, 0.05)
    return VerifyCase(
        name="call-1d",
        workload=Workload("call-1d", model, Call(100.0), 1.0),
        engines=engines or {
            "analytic": {"kind": "bs", "spot": 100.0, "strike": 100.0,
                         "vol": 0.2, "rate": 0.05, "expiry": 1.0,
                         "option": "call"},
            "lattice": {"steps": 128},
        },
    )


class TestContracts:
    def test_config_hash_is_stable(self):
        assert config_hash(_call_case()) == config_hash(_call_case())

    def test_config_hash_tracks_engine_settings(self):
        base = _call_case()
        bumped = _call_case(
            analytic=dict(base.engines["analytic"]),
            lattice={"steps": 256},
        )
        assert config_hash(base) != config_hash(bumped)

    def test_unknown_engine_family_rejected(self):
        with pytest.raises(ValidationError, match="unknown engine families"):
            _call_case(analytic={"kind": "bs"}, warp_drive={})

    def test_single_engine_rejected(self):
        with pytest.raises(ValidationError, match="at least two"):
            _call_case(lattice={"steps": 128})

    def test_canonical_json_handles_numpy(self):
        doc = {"a": np.float64(1.5), "b": np.arange(3), "c": (1, 2)}
        assert canonical_json(doc) == '{"a":1.5,"b":[0,1,2],"c":[1,2]}'

    def test_default_corpus_is_deterministic(self):
        first = [config_hash(c) for c in default_corpus()]
        second = [config_hash(c) for c in default_corpus()]
        assert first == second
        assert len(first) == len(set(first))


class TestRunCase:
    def test_analytic_and_lattice_agree(self):
        cells = run_case(_call_case())
        assert set(cells) == {"analytic", "lattice"}
        assert compare_cells("call-1d", cells) == []
        # Bands are honest: tiny for the closed form, visible for the tree.
        assert cells["analytic"].band < 1e-6 < cells["lattice"].band

    def test_odd_lattice_steps_rejected(self):
        case = _call_case(analytic={"kind": "bs", "spot": 100.0,
                                    "strike": 100.0, "vol": 0.2,
                                    "rate": 0.05, "expiry": 1.0},
                          lattice={"steps": 129})
        with pytest.raises(ValidationError, match="even"):
            run_case(case)


class TestCompareCells:
    def test_disagreement_is_reported_pairwise(self):
        cells = {
            "analytic": EngineCell("analytic", 10.0, 1e-9),
            "mc": EngineCell("mc", 10.5, 0.1),
        }
        found = compare_cells("case-x", cells)
        assert len(found) == 1
        d = found[0]
        assert (d.case, d.engine_a, d.engine_b) == ("case-x", "analytic", "mc")
        assert d.diff == pytest.approx(0.5)
        assert d.allowed == pytest.approx(0.1 + 1e-9)
        # The failure message names contract, engines and the exceeded band.
        text = str(d)
        assert "case-x" in text and "analytic" in text and "mc" in text
        assert "exceeds band" in text

    def test_agreement_within_bands(self):
        cells = {
            "a": EngineCell("a", 10.0, 0.3),
            "b": EngineCell("b", 10.5, 0.3),
        }
        assert compare_cells("case-y", cells) == []


class TestPerturbation:
    def test_perturbed_engine_constant_fails_with_named_report(self, monkeypatch):
        # The acceptance check from the issue: nudge one engine's output and
        # the harness must fail, naming the engine, the contract and the
        # band that was exceeded.
        true_bs = repro.analytic.bs_price
        monkeypatch.setattr(repro.analytic, "bs_price",
                            lambda *a, **k: true_bs(*a, **k) + 0.05)
        report = run_oracle([_call_case()])
        assert not report.ok
        (d,) = report.discrepancies
        assert d.case == "call-1d"
        assert {d.engine_a, d.engine_b} == {"analytic", "lattice"}
        assert d.diff > d.allowed
        doc = report.to_dict()
        assert doc["ok"] is False
        assert doc["discrepancies"][0]["case"] == "call-1d"

    def test_unperturbed_baseline_passes(self):
        report = run_oracle([_call_case()])
        assert report.ok
        assert report.hashes["call-1d"] == config_hash(_call_case())


@pytest.mark.oracle
def test_full_corpus_cross_engine_agreement():
    """Every engine pair on every committed case agrees within bands."""
    report = run_oracle()
    assert report.ok, "\n".join(str(d) for d in report.discrepancies)
    assert len(report.cells) == 6
    assert sum(len(c) for c in report.cells.values()) == 19

"""Run ledger: record round-trips, schema stability, runner/serve wiring."""

import json

import pytest

from repro.errors import ValidationError
from repro.engine import ParallelMCPricer
from repro.obs import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    RunRecord,
    config_digest,
    new_run_id,
    read_ledger,
    set_active_ledger,
)
from repro.parallel import ThreadBackend
from repro.parallel.faults import FaultPlan
from repro.workloads import basket_workload


def _record(**over) -> RunRecord:
    doc = dict(run_id="abc123def456", kind="engine", engine="mc",
               config="0011223344ff", backend="thread", workers=2, p=4,
               stages={"plan": 0.001, "execute": 0.5},
               wall_s=0.51, sim_s=0.2, faults={"injected": 1, "retries": 1},
               extra={"price": 10.5}, git="deadbee")
    doc.update(over)
    return RunRecord(**doc)


class TestRunRecord:
    def test_round_trip_preserves_every_field(self):
        rec = _record()
        clone = RunRecord.from_dict(json.loads(rec.to_json()))
        assert clone == rec
        assert clone.to_json() == rec.to_json()

    def test_canonical_json_is_sorted_and_compact(self):
        text = _record().to_json()
        doc = json.loads(text)
        assert list(doc) == sorted(doc)
        assert ": " not in text and ", " not in text
        assert doc["schema"] == LEDGER_SCHEMA_VERSION

    def test_schema_stability_golden_shape(self):
        # The v1 wire shape is frozen: adding/renaming a field must bump
        # LEDGER_SCHEMA_VERSION (and extend this set).
        assert set(json.loads(_record().to_json())) == {
            "schema", "run_id", "kind", "engine", "config", "backend",
            "workers", "p", "stages", "wall_s", "sim_s", "faults",
            "extra", "git",
        }

    def test_newer_schema_is_rejected(self):
        doc = json.loads(_record().to_json())
        doc["schema"] = LEDGER_SCHEMA_VERSION + 1
        with pytest.raises(ValidationError, match="newer"):
            RunRecord.from_dict(doc)

    def test_missing_schema_and_malformed_doc_raise(self):
        with pytest.raises(ValidationError):
            RunRecord.from_dict({"run_id": "x"})
        with pytest.raises(ValidationError):
            RunRecord.from_dict([1, 2])
        doc = json.loads(_record().to_json())
        del doc["engine"]
        with pytest.raises(ValidationError, match="malformed"):
            RunRecord.from_dict(doc)


class TestLedgerFile:
    def test_append_and_read_back(self, tmp_path):
        ledger = RunLedger(tmp_path / "sub" / "runs.jsonl")
        for i in range(3):
            ledger.append(_record(run_id=f"{i:012d}"))
        assert ledger.appended == 3
        recs = ledger.records()
        assert [r.run_id for r in recs] == ["000000000000", "000000000001",
                                           "000000000002"]
        assert len(ledger) == 3

    def test_read_missing_and_corrupt_lines(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            list(read_ledger(tmp_path / "nope.jsonl"))
        bad = tmp_path / "bad.jsonl"
        bad.write_text(_record().to_json() + "\nnot json\n")
        with pytest.raises(ValidationError, match="not valid JSON"):
            list(read_ledger(bad))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("\n" + _record().to_json() + "\n\n")
        assert len(list(read_ledger(path))) == 1


class TestHelpers:
    def test_new_run_id_shape_and_uniqueness(self):
        ids = {new_run_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 12 for i in ids)
        assert all(c in "0123456789abcdef" for i in ids for c in i)

    def test_config_digest_ignores_machinery_and_order(self):
        class Cfg:
            pass

        a, b = Cfg(), Cfg()
        a.n_paths, a.seed, a.backend = 1000, 7, ThreadBackend(2)
        b.seed, b.n_paths = 7, 1000  # different insertion order, no backend
        a.backend.close()
        assert config_digest(a) == config_digest(b)
        b.seed = 8
        assert config_digest(a) != config_digest(b)

    def test_config_digest_accepts_mappings(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})
        assert len(config_digest({"a": 1})) == 12


class TestRunnerIntegration:
    def test_pipeline_run_appends_stage_timed_record(self, tmp_path):
        w = basket_workload(2)
        pricer = ParallelMCPricer(4000, seed=1)
        pricer.ledger = RunLedger(tmp_path / "runs.jsonl")
        res = pricer.price(w.model, w.payoff, w.expiry, 4)
        (rec,) = pricer.ledger.records()
        assert rec.kind == "engine" and rec.engine == "mc"
        assert rec.backend == "serial" and rec.p == 4
        assert set(rec.stages) == {"plan", "partition", "execute",
                                   "reduce", "report"}
        assert all(t >= 0.0 for t in rec.stages.values())
        assert rec.wall_s == res.wall_time
        assert rec.extra["price"] == res.price
        assert len(rec.run_id) == 12

    def test_fault_tallies_and_run_id_correlation(self, tmp_path):
        w = basket_workload(2)
        pricer = ParallelMCPricer(4000, seed=1,
                                  faults=FaultPlan.single_crash(1),
                                  policy="retry")
        pricer.ledger = RunLedger(tmp_path / "runs.jsonl")
        res = pricer.price(w.model, w.payoff, w.expiry, 4)
        (rec,) = pricer.ledger.records()
        assert rec.faults == {"injected": 1, "retries": 1,
                              "recovered": 1, "lost": 0}
        # The RunReport carries the same correlation id as the ledger row.
        assert res.meta["fault_report"].run_id == rec.run_id

    def test_no_ledger_means_no_writes(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        set_active_ledger(None)
        w = basket_workload(2)
        ParallelMCPricer(2000, seed=1).price(w.model, w.payoff, w.expiry, 2)
        assert list(tmp_path.iterdir()) == []

    def test_ambient_ledger_via_set_active(self, tmp_path):
        ledger = set_active_ledger(tmp_path / "ambient.jsonl")
        try:
            w = basket_workload(2)
            ParallelMCPricer(2000, seed=1).price(w.model, w.payoff,
                                                 w.expiry, 2)
            assert len(ledger.records()) == 1
        finally:
            set_active_ledger(None)

    def test_run_id_stays_out_of_canonical_report(self, tmp_path):
        # Byte-reproducibility contract: the correlation id never enters
        # RunReport's canonical serialization, so replayed chaos runs
        # still compare byte-for-byte.
        w = basket_workload(2)

        def report_json(with_ledger: bool):
            pricer = ParallelMCPricer(2000, seed=1,
                                      faults=FaultPlan.single_crash(0),
                                      policy="retry")
            if with_ledger:
                pricer.ledger = RunLedger(tmp_path / "r.jsonl")
            res = pricer.price(w.model, w.payoff, w.expiry, 2)
            return res.meta["fault_report"].to_json()

        assert report_json(True) == report_json(False)

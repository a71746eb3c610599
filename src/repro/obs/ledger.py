"""The run ledger: a durable, diffable record of every measured run.

The benchmarks answer "how fast is it *now*"; the ledger answers "how fast
was it *then*" — without rerunning anything. Every pipeline run
(:func:`repro.engine.runner.run_pipeline`), every
:class:`~repro.serve.PricingService` batch and every benchmark invocation
can append one :class:`RunRecord` — a canonical-JSON line in an append-only
JSONL file — carrying the engine name, a config digest, the backend and
worker count, **per-stage wall timings** from the runner's stage clock,
the run's headline metrics, fault/retry counts and the git SHA, under a
versioned schema (:data:`LEDGER_SCHEMA_VERSION`).

Design rules:

* **Opt-in and out-of-band.** Nothing is recorded unless a ledger is
  configured — either explicitly (``pricer.ledger = RunLedger(path)`` /
  ``PricingService(ledger=...)``) or ambiently via the ``REPRO_LEDGER``
  environment variable (the CI bench lanes set it). The fast path when no
  ledger is active is one attribute read.
* **Canonical serialization.** ``RunRecord.to_json()`` sorts keys and
  fixes separators, so records are byte-stable functions of their
  contents; the *contents* include wall timings, which legitimately vary
  run to run — comparability across runs is the job of
  :mod:`repro.obs.diff`, which applies noise-aware tolerance bands.
* **Correlatable.** Each record carries a ``run_id`` that the runner also
  threads into :func:`~repro.parallel.faults.resilient_map` (so the
  :class:`~repro.parallel.faults.RunReport` and the tracer's fault/retry
  instants name the same id) — a retried task in a trace joins to its
  ledger row.

``repro obs report`` / ``repro obs diff`` are the CLI consumers.
"""

from __future__ import annotations

import json
import os
import subprocess
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.errors import ValidationError

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "RunRecord",
    "RunLedger",
    "new_run_id",
    "git_sha",
    "config_digest",
    "active_ledger",
    "set_active_ledger",
    "read_ledger",
    "record_from_result",
]

#: Bump when a field is added/renamed/retyped; readers accept <= current.
LEDGER_SCHEMA_VERSION = 1

#: Environment variable naming the ambient ledger path (CI bench lanes).
LEDGER_ENV_VAR = "REPRO_LEDGER"


def new_run_id() -> str:
    """A fresh 12-hex-digit correlation id (unique per run, not per rank)."""
    return uuid.uuid4().hex[:12]


_GIT_SHA: str | None = None


def git_sha() -> str:
    """The repo's short HEAD SHA, cached per process.

    Honours ``REPRO_GIT_SHA`` (set it in containers without git metadata);
    falls back to ``"unknown"`` rather than failing a pricing run over
    missing VCS state.
    """
    global _GIT_SHA
    if _GIT_SHA is None:
        sha = os.environ.get("REPRO_GIT_SHA")
        if not sha:
            try:
                sha = subprocess.run(
                    ["git", "rev-parse", "--short", "HEAD"],
                    capture_output=True, text=True, timeout=5.0,
                    cwd=os.path.dirname(os.path.abspath(__file__)),
                ).stdout.strip() or "unknown"
            except (OSError, subprocess.SubprocessError):
                sha = "unknown"
        _GIT_SHA = sha
    return _GIT_SHA


def _primitive(value: object) -> object | None:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)) and all(
            v is None or isinstance(v, (bool, int, float, str)) for v in value):
        return list(value)
    return None


def config_digest(config: object) -> str:
    """A stable 12-hex digest of a config object's primitive settings.

    Walks ``vars(config)`` (or the mapping itself), keeps JSON-stable
    primitives (bool/int/float/str/None) plus flat tuples/lists of them,
    and hashes the sorted canonical JSON — so two identically configured
    pricers digest identically whatever their attribute insertion order,
    and attached machinery (backends, tracers, plans) never leaks in.
    """
    import hashlib

    source = config if isinstance(config, dict) else vars(config)
    doc = {}
    for key, value in source.items():
        kept = _primitive(value)
        if kept is not None or value is None:
            doc[str(key)] = kept
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class RunRecord:
    """One ledger line: the comparable fingerprint of one measured run.

    ``stages`` maps stage name → wall seconds (``plan`` / ``partition`` /
    ``execute`` / ``reduce`` / ``report`` for pipeline runs, ``batch`` for
    service batches); ``faults`` carries the recovery tallies; ``extra``
    is free-form per-kind detail (price, request counts, ...).
    """

    run_id: str
    kind: str                      # "engine" | "strip" | "serve" | "bench"
    engine: str
    config: str                    # config_digest of the run's settings
    backend: str
    workers: int
    p: int
    stages: dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    sim_s: float = 0.0
    faults: dict[str, int] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    git: str = ""
    schema: int = LEDGER_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "kind": self.kind,
            "engine": self.engine,
            "config": self.config,
            "backend": self.backend,
            "workers": self.workers,
            "p": self.p,
            "stages": dict(self.stages),
            "wall_s": self.wall_s,
            "sim_s": self.sim_s,
            "faults": dict(self.faults),
            "extra": dict(self.extra),
            "git": self.git,
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, fixed separators) — one JSONL line."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: dict) -> "RunRecord":
        if not isinstance(doc, dict):
            raise ValidationError(f"ledger record must be an object, got "
                                  f"{type(doc).__name__}")
        schema = doc.get("schema")
        if not isinstance(schema, int) or schema < 1:
            raise ValidationError(f"ledger record has no valid schema "
                                  f"version: {schema!r}")
        if schema > LEDGER_SCHEMA_VERSION:
            raise ValidationError(
                f"ledger record schema v{schema} is newer than this "
                f"reader (v{LEDGER_SCHEMA_VERSION}); upgrade repro"
            )
        try:
            return cls(
                run_id=str(doc["run_id"]),
                kind=str(doc["kind"]),
                engine=str(doc["engine"]),
                config=str(doc["config"]),
                backend=str(doc["backend"]),
                workers=int(doc["workers"]),
                p=int(doc["p"]),
                stages={str(k): float(v)
                        for k, v in dict(doc.get("stages", {})).items()},
                wall_s=float(doc.get("wall_s", 0.0)),
                sim_s=float(doc.get("sim_s", 0.0)),
                faults={str(k): int(v)
                        for k, v in dict(doc.get("faults", {})).items()},
                extra=dict(doc.get("extra", {})),
                git=str(doc.get("git", "")),
                schema=schema,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed ledger record: {exc}") from exc


class RunLedger:
    """Append-only JSONL store of :class:`RunRecord`\\ s.

    Appends open/close the file per record — crash-safe (a half-written
    process loses at most its last line) and safely shareable between the
    runner, the service and benchmark mains in one process.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.appended = 0

    def append(self, record: RunRecord) -> RunRecord:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(record.to_json() + "\n")
        self.appended += 1
        return record

    def records(self) -> list[RunRecord]:
        return list(read_ledger(self.path))

    def __len__(self) -> int:
        return len(self.records()) if self.path.exists() else 0


def read_ledger(path: str | Path) -> Iterator[RunRecord]:
    """Yield the records of a JSONL ledger file (validating each line)."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"ledger file not found: {p}")
    with p.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(
                    f"{p}:{lineno}: not valid JSON: {exc}") from exc
            yield RunRecord.from_dict(doc)


# ---------------------------------------------------------------------------
# Ambient ledger: the REPRO_LEDGER hook the runner/service/benches consult.
# ---------------------------------------------------------------------------

_ACTIVE: RunLedger | None = None
_ACTIVE_RESOLVED = False


def set_active_ledger(ledger: RunLedger | str | Path | None) -> RunLedger | None:
    """Install (or clear, with ``None``) the process-wide ambient ledger."""
    global _ACTIVE, _ACTIVE_RESOLVED
    if ledger is not None and not isinstance(ledger, RunLedger):
        ledger = RunLedger(ledger)
    _ACTIVE = ledger
    _ACTIVE_RESOLVED = True
    return _ACTIVE


def active_ledger() -> RunLedger | None:
    """The ambient ledger: explicit install wins, else ``$REPRO_LEDGER``.

    Resolved lazily once per process (and re-resolvable via
    :func:`set_active_ledger`); returns ``None`` when neither is set — the
    no-observability fast path.
    """
    global _ACTIVE, _ACTIVE_RESOLVED
    if not _ACTIVE_RESOLVED:
        path = os.environ.get(LEDGER_ENV_VAR)
        _ACTIVE = RunLedger(path) if path else None
        _ACTIVE_RESOLVED = True
    return _ACTIVE


def record_from_result(result, *, run_id: str, kind: str, config: object,
                       stages: dict[str, float],
                       fault_report=None, extra: dict | None = None) -> RunRecord:
    """Build a :class:`RunRecord` from a ``ParallelRunResult``.

    The runner calls this after assembling the result; benchmark drivers
    may call it directly on any result they hold.
    """
    backend = getattr(config, "backend", None)
    faults: dict[str, int] = {}
    if fault_report is not None:
        faults = {
            "injected": fault_report.faults_injected,
            "retries": fault_report.n_retries,
            "recovered": len(fault_report.recovered_ranks),
            "lost": len(fault_report.lost_ranks),
        }
    doc_extra = {"price": result.price, "stderr": result.stderr}
    if extra:
        doc_extra.update(extra)
    return RunRecord(
        run_id=run_id,
        kind=kind,
        engine=result.engine,
        config=config_digest(config),
        backend=getattr(backend, "name", "none"),
        workers=int(getattr(backend, "max_workers", 1) or 1),
        p=result.p,
        stages=dict(stages),
        wall_s=result.wall_time,
        sim_s=result.sim_time,
        faults=faults,
        extra=doc_extra,
        git=git_sha(),
    )

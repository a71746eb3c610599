"""Names, units and bounds of everything the benchmark reports, and the
validators for ``BENCHMARK.json`` and for one emitted result line.

This table is the single source: ``BENCHMARK.json`` at the repo root is
checked against it by the self-check tests, and ``run.py`` refuses to
print a metric that is not listed here.
"""

from __future__ import annotations

import math
import re

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "RUN_SECONDS", "COMMAND",
           "PATHS", "benchmark_document", "validate_benchmark",
           "validate_result", "SchemaError"]

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]
RUN_SECONDS = 18

#: name → why it exists (one line; README.md has the long form).
WORKLOADS = {
    "quote_cold": "closed loop, 2 clients on a 2-shard gateway pinned to one "
                  "CPU, all-distinct keys (70% mc, 20% lattice, 10% pde): kernels "
                  "and engine middleware do the work, the cache only misses",
    "quote_hot": "same gateway and clients, 256-request working set priced in "
                 "set-up, then drawn with replacement: 100% hits, zero kernel "
                 "work, cost is hashing, admission, routing and the thread hop",
    "book_batch": "one batched price_many of a book of strike ladders and "
                  "singles on a 2-worker process pool: planning, fusion and a "
                  "few fat pickled strip tasks dominate, no gateway",
    "risk_sweep": "full-revaluation sweep of a 16-contract book, cold then "
                  "cache-hot, through one serial service: many small batches, "
                  "risk-layer request building and per-request hashing show",
    "scaling_mc": "the paper's T(P): one large basket MC solve as 8 thin rank "
                  "tasks, serial backend then 2-worker process pool, "
                  "alternating: dispatch of compute-bound O(1)-payload tasks",
}

#: (name, unit, better, bound). Every workload reports every one; what a
#: reply and a work unit are on each workload, and why the timing bounds
#: sit at the contract's cap, is in README.md.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: (name, unit, better). 0 on a workload whose path does not cross the
#: layer. Counts are exact and repeat for one seed.
PER_LAYER = [
    ("gateway.offer_us", "us", "lower"),
    ("gateway.dispatch_us", "us", "lower"),
    ("gateway.hop_us", "us", "lower"),
    ("gateway.queue_wait_ms_p99", "ms", "lower"),
    ("gateway.offered", "count", "higher"),
    ("gateway.shed", "count", "lower"),
    ("gateway.late", "count", "lower"),
    ("gateway.shard_imbalance", "ratio", "lower"),
    ("serve.key_us", "us", "lower"),
    ("serve.cache_get_us", "us", "lower"),
    ("serve.cache_put_us", "us", "lower"),
    ("serve.cache_hit_share", "ratio", "higher"),
    ("serve.batch_overhead_us", "us", "lower"),
    ("serve.hot_replay_per_s", "1/s", "higher"),
    ("serve.requests", "count", "higher"),
    ("serve.map_calls", "count", "lower"),
    ("serve.deduped", "count", "higher"),
    ("batch.plan_ms", "ms", "lower"),
    ("batch.strips", "count", "lower"),
    ("batch.fused_share", "ratio", "higher"),
    ("batch.strip_kernel_ms", "ms", "lower"),
    ("batch.fusion_gain", "ratio", "higher"),
    ("engine.pipeline_overhead_us.mc", "us", "lower"),
    ("engine.pipeline_overhead_us.lattice", "us", "lower"),
    ("engine.pipeline_overhead_us.pde", "us", "lower"),
    ("engine.floor_ratio.mc", "ratio", "lower"),
    ("engine.floor_ratio.lattice", "ratio", "lower"),
    ("engine.floor_ratio.pde", "ratio", "lower"),
    ("parallel.map_overhead_ms", "ms", "lower"),
    ("parallel.worker_busy_share", "ratio", "higher"),
    ("parallel.straggler_ratio", "ratio", "lower"),
    ("parallel.task_pickle_bytes", "B", "lower"),
    ("parallel.result_pickle_bytes", "B", "lower"),
    ("parallel.pickle_ms", "ms", "lower"),
    ("parallel.solve_p1_s", "s", "lower"),
    ("parallel.solve_p2_s", "s", "lower"),
    ("parallel.speedup_p2", "ratio", "higher"),
    ("parallel.efficiency_p2", "ratio", "higher"),
    ("parallel.thread_solve_s", "s", "lower"),
    ("parallel.pool_start_ms", "ms", "lower"),
    ("parallel.host_speedup_p2", "ratio", "higher"),
    ("parallel.unresolved_host", "flag", "lower"),
    ("mc.kernel_us_per_kpath", "us", "lower"),
    ("lattice.kernel_ns_per_node", "ns", "lower"),
    ("pde.kernel_ns_per_cell_step", "ns", "lower"),
    ("mc.paths", "count", "lower"),
    ("lattice.nodes", "count", "lower"),
    ("pde.cell_steps", "count", "lower"),
    ("risk.apply_us", "us", "lower"),
    ("risk.request_build_us", "us", "lower"),
    ("risk.var_es_us", "us", "lower"),
    ("risk.overhead_share", "ratio", "lower"),
    ("risk.cold_scen_per_s", "1/s", "higher"),
    ("risk.hot_scen_per_s", "1/s", "higher"),
    ("self_share.gateway", "ratio", "lower"),
    ("self_share.queue_wait", "ratio", "lower"),
    ("self_share.serve", "ratio", "lower"),
    ("self_share.batch", "ratio", "lower"),
    ("self_share.engine", "ratio", "lower"),
    ("self_share.mc", "ratio", "lower"),
    ("self_share.parallel", "ratio", "lower"),
    ("self_share.risk", "ratio", "lower"),
    ("closure_share", "ratio", "higher"),
    ("unattributed_ms", "ms", "lower"),
    ("obs.trace_overhead_share", "ratio", "lower"),
]

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SchemaError(ValueError):
    """A document does not meet the benchmark contract."""


def benchmark_document() -> dict:
    """What ``BENCHMARK.json`` must contain."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d}
                       for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _check_metrics(entries, keys: set, limit: int, label: str) -> list[str]:
    _check(isinstance(entries, list) and 1 <= len(entries) <= limit,
           f"{label}: need 1..{limit} entries")
    for entry in entries:
        _check(isinstance(entry, dict) and set(entry) == keys,
               f"{label}: entry keys must be exactly {sorted(keys)}")
        _check(bool(_NAME.match(entry["name"])), f"bad name {entry['name']!r}")
        _check(bool(_UNIT.match(entry["unit"])), f"bad unit {entry['unit']!r}")
        _check(entry["better"] in ("lower", "higher"),
               f"{entry['name']}: better must be lower|higher")
    return [entry["name"] for entry in entries]


def validate_benchmark(doc: dict) -> None:
    """Raise :class:`SchemaError` unless ``doc`` meets the contract."""
    _check(set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "unexpected top-level keys")
    command, paths = doc["command"], doc["paths"]
    _check(isinstance(command, list) and 1 <= len(command) <= 32
           and all(isinstance(c, str) and len(c) <= 200 for c in command),
           "command: 1..32 strings of at most 200 characters")
    _check(isinstance(paths, list) and 1 <= len(paths) <= 16, "paths: 1..16")
    for path in paths:
        _check(bool(re.match(r"^[A-Za-z0-9_.\-/]{1,200}$", path))
               and not path.startswith("/") and ".." not in path.split("/"),
               f"bad path {path!r}")
    for arg in command:
        _check(not arg.startswith("/") and ".." not in arg.split("/"),
               f"command argument leaves the repo: {arg!r}")
        if "/" in arg:
            _check(any(arg.startswith(p + "/") for p in paths),
                   f"command names a file outside paths: {arg!r}")
    seconds = doc["run_seconds"]
    _check(isinstance(seconds, int) and not isinstance(seconds, bool)
           and 1 <= seconds <= 60, "run_seconds: whole number 1..60")
    workloads = doc["workloads"]
    _check(isinstance(workloads, list) and 2 <= len(workloads) <= 8,
           "workloads: 2..8")
    names = []
    for w in workloads:
        _check(isinstance(w, dict) and set(w) == {"name", "why"},
               "workload keys must be exactly name, why")
        _check(bool(_NAME.match(w["name"])), f"bad name {w['name']!r}")
        _check(isinstance(w["why"], str) and 0 < len(w["why"]) <= 200
               and "\n" not in w["why"], f"{w['name']}: why is one line <= 200")
        names.append(w["name"])
    e2e = _check_metrics(doc["end_to_end"], {"name", "unit", "better", "bound"},
                         16, "end_to_end")
    for entry in doc["end_to_end"]:
        bound = entry["bound"]
        _check(isinstance(bound, (int, float)) and 0 < bound <= 0.25,
               f"{entry['name']}: bound must be in (0, 0.25]")
    setup = [e for e in doc["end_to_end"] if e["name"] == "setup_s"]
    _check(len(setup) == 1 and setup[0]["unit"] == "s"
           and setup[0]["better"] == "lower", "setup_s (s, lower) is required")
    layer = _check_metrics(doc["per_layer"], {"name", "unit", "better"}, 128,
                           "per_layer")
    every = names + e2e + layer
    _check(len(every) == len(set(every)), "a name is used twice")


def validate_result(result: dict, *, trace: bool) -> None:
    """Raise unless ``result`` is a well-formed last line for the mode."""
    allowed = {"correct", "attempted", "failed", "metrics"}
    _check(allowed <= set(result) <= allowed | {"smoke"},
           "result keys must be correct, attempted, failed, metrics")
    _check(isinstance(result["correct"], bool), "correct must be a bool")
    for key in ("attempted", "failed"):
        _check(isinstance(result[key], int) and not isinstance(result[key], bool),
               f"{key} must be a whole number")
    _check(result["attempted"] >= 1 and 0 <= result["failed"], "counts")
    expected = ({n: u for n, u, _ in PER_LAYER} if trace
                else {n: u for n, u, _, _ in END_TO_END})
    metrics = result["metrics"]
    _check(set(metrics) == set(expected),
           f"metrics differ from the declared set: "
           f"{sorted(set(metrics) ^ set(expected))}")
    for name, entry in metrics.items():
        _check(set(entry) == {"value", "unit"}, f"{name}: value and unit only")
        _check(entry["unit"] == expected[name], f"{name}: unit mismatch")
        value = entry["value"]
        _check(isinstance(value, (int, float)) and not isinstance(value, bool)
               and math.isfinite(value), f"{name}: value must be a finite number")
        if not trace:
            _check(value != 0, f"{name}: an end-to-end metric is never 0")

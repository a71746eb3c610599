"""Self-check of the benchmark itself (not part of tier-1):

    pytest benchmarks/e2e -q

Schema and naming limits, span arithmetic on a synthetic tree, seeded
input determinism, the comparer's verdicts, and ``--smoke`` runs that
must finish quickly and leave no process behind after a normal exit, an
injected exception and SIGTERM.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import compare, procguard, schema  # noqa: E402
from benchmarks.e2e.spans import (ROOT as ROOT_LAYER, Span,  # noqa: E402
                                  SpanRecorder, closure, layer_self_times)

RUN = [sys.executable, str(HERE / "run.py")]
WORKLOADS = list(schema.WORKLOADS)


def _group_members(pgid: int) -> list[int]:
    """Live pids in process group ``pgid`` (a leaked child keeps it)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _smoke(workload: str, *extra: str, seed: int = 5, trace: int = 0,
           seconds: int = 1):
    """One ``--smoke`` run in its own process group."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", str(trace), "--smoke", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    return proc, t0


def _finish(proc, t0):
    out, err = proc.communicate(timeout=60)
    assert time.monotonic() - t0 < 30, "a smoke run must finish in 30 s"
    assert _group_members(proc.pid) == [], "the run left a process behind"
    return out, err


# -- schema and names -------------------------------------------------------


def test_names_and_counts_are_within_the_contract():
    name = re.compile(r"^[A-Za-z0-9_.-]+$")
    every = (WORKLOADS + [m[0] for m in schema.END_TO_END]
             + [m[0] for m in schema.PER_LAYER])
    assert all(name.match(n) and len(n) <= 64 for n in every)
    assert len(every) == len(set(every))
    assert 2 <= len(WORKLOADS) <= 8
    assert len(schema.END_TO_END) <= 16 and len(schema.PER_LAYER) <= 128
    assert all(len(why) <= 200 for why in schema.WORKLOADS.values())


def test_benchmark_json_is_the_declared_document():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    schema.validate_benchmark(doc)
    assert doc == schema.benchmark_document()
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(run_seconds=61),
    lambda d: d["end_to_end"][1].update(bound=0.3),
    lambda d: d["command"].append("../elsewhere"),
    lambda d: d["command"].append("src/repro/cli.py"),
    lambda d: d["workloads"][0].update(name="bad name"),
    lambda d: d["per_layer"].append(dict(d["per_layer"][0])),
    lambda d: d["end_to_end"].pop(0),
])
def test_validate_benchmark_refuses_what_the_contract_refuses(mutate):
    doc = schema.benchmark_document()
    mutate(doc)
    with pytest.raises(schema.SchemaError):
        schema.validate_benchmark(doc)


# -- span arithmetic --------------------------------------------------------


def _tree():
    root = Span(ROOT_LAYER, "round", 0, None, 0.0, 10.0)
    serve = Span("serve", "price_many", 0, root, 1.0, 9.5)
    get = Span("serve", "cache_get", 0, serve, 1.0, 2.0)
    pool = Span("parallel", "map", 0, serve, 3.0, 9.0)
    a = Span("engine", "task", 0, pool, 4.0, 8.0)   # overlaps b on 4..6
    b = Span("batch", "task", 0, pool, 4.0, 6.0)
    return [root, serve, get, pool, a, b]


def test_self_times_of_a_tree_sum_to_its_root():
    table = layer_self_times(_tree())
    assert table[ROOT_LAYER] == pytest.approx(1.5)        # 0..1 and 9.5..10
    assert table["serve"] == pytest.approx(1.0 + 1.5)     # get + uncovered
    assert table["parallel"] == pytest.approx(2.0)        # 3..4 and 8..9
    assert table["batch"] == pytest.approx(1.0)           # half of 4..6
    assert table["engine"] == pytest.approx(1.0 + 2.0)    # half of 4..6, 6..8
    assert sum(table.values()) == pytest.approx(10.0)


def test_closure_reports_what_no_layer_covered():
    share, unattributed, wall = closure(_tree())
    assert wall == pytest.approx(10.0)
    assert unattributed == pytest.approx(1.5)
    assert share == pytest.approx(0.85)


def test_recorder_nests_per_track_and_names_the_cause():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    outer = rec.begin(ROOT_LAYER, "request", track=7)
    other = rec.begin(ROOT_LAYER, "request", track=8)
    inner = rec.begin("gateway", "offer", track=7)
    rec.end(inner)
    gap = rec.add("gateway", "hop", 3.5, 3.75, track=7)
    rec.end(outer)
    rec.end(other)
    assert inner.parent is outer and gap.parent is outer
    assert other.parent is None
    assert rec.current(7) is None and len(rec.closed()) == 4


# -- the comparer -----------------------------------------------------------


def test_compare_verdicts():
    steady_a = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(steady_a, [v * 1.05 for v in steady_a],
                           "lower", 0.10) == "ok"
    assert compare.verdict(steady_a, [v * 1.2 for v in steady_a],
                           "lower", 0.10) == "worse"
    assert compare.verdict(steady_a, [v * 0.8 for v in steady_a],
                           "higher", 0.10) == "worse"
    noisy = [100, 140, 70, 120, 90, 150, 60, 130, 80, 110]
    assert compare.verdict(noisy, noisy, "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, [v / 10 for v in noisy],
                           "lower", 0.10) == "ok"  # every run better
    assert compare.spread_verdict(steady_a, 0.10) == "steady"
    assert compare.spread_verdict(noisy, 0.10) == "unresolved"


def test_compare_refuses_smoke_runs(tmp_path):
    run = {"host": {"workload": "quote_hot", "seed": 1, "trace": 0,
                    "smoke": True},
           "result": {"correct": True, "attempted": 1, "failed": 0,
                      "metrics": {}, "smoke": True}}
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps({"runs": [run]}))
    with pytest.raises(SystemExit, match="smoke"):
        compare.load_runs(path)


# -- seeded inputs ----------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_requests_other_seed_other_keys(workload):
    from contextlib import ExitStack

    procguard.prepare_environment()
    from benchmarks.e2e import workloads

    digests = []
    for seed in (3, 3, 4):
        w = workloads.WORKLOAD_CLASSES[workload](
            seed, workloads.SMOKE_SIZES[workload])
        with ExitStack() as stack:
            w.open(stack)
            digests.append(w.request_digest())
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


# -- smoke runs: results, counts, no process left behind --------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_results_validate_and_counts_repeat(workload):
    out, _ = _finish(*_smoke(workload))
    result = json.loads(out.strip().splitlines()[-1])
    schema.validate_result(result, trace=False)
    assert result["smoke"] is True and result["correct"] is True
    traced = []
    for _ in range(2):
        out, _ = _finish(*_smoke(workload, trace=1))
        result = json.loads(out.strip().splitlines()[-1])
        schema.validate_result(result, trace=True)
        assert result["failed"] == 0
        traced.append({name: entry["value"]
                       for name, entry in result["metrics"].items()
                       if entry["unit"] == "count"})
    assert traced[0] == traced[1], "exact counts must repeat for one seed"


@pytest.mark.parametrize("workload", ["quote_cold", "book_batch"])
def test_injected_exception_exits_nonzero_and_clean(workload):
    proc, t0 = _smoke(workload, "--fail-after-rounds", "2")
    out, err = _finish(proc, t0)
    assert proc.returncode not in (0, None)
    assert "injected failure" in err
    assert not out.strip().endswith("}"), "a failed run prints no result"


@pytest.mark.parametrize("workload", ["quote_hot", "book_batch", "scaling_mc"])
def test_sigterm_exits_nonzero_and_clean(workload):
    proc, t0 = _smoke(workload, seconds=20)
    time.sleep(2.0)  # imports done, rounds running
    proc.send_signal(signal.SIGTERM)
    out, _ = _finish(proc, t0)
    assert proc.returncode == 128 + signal.SIGTERM
    assert not out.strip().endswith("}")


def test_outside_the_repo_the_command_fails_without_a_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is no program to measure: non-zero exit, no result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "quote_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert done.stdout.strip() == ""

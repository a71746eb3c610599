"""One run of one workload: set-up (several times, median reported),
whole rounds for ``--seconds``, the correctness gate, the metrics, one
JSON line — inside the process guard.

``--trace 0`` reports the end-to-end metrics from untraced rounds.
``--trace 1`` alternates untraced and traced rounds of the same inputs
on the same system (spans from the benchmark's own wrappers, kept in
memory and written under ``benchmarks/e2e/out/`` at exit), then runs the
staged replays, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import ExitStack
from pathlib import Path

from benchmarks.e2e import procguard, schema

#: Set-ups per untraced run, ``setup_s`` being their median: at least
#: ``SETUP_REPEATS``, and more of a cheap set-up (tens of milliseconds, so
#: noisy) until ``SETUP_BUDGET_S`` is spent or ``SETUP_MAX_REPEATS`` made.
SETUP_REPEATS = 5
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 1.5
#: Rounds a run makes at least, however slow the host.
MIN_ROUNDS = 3
#: Share of ``--seconds`` a traced run spends on rounds; the rest is
#: for the staged replays.
TRACED_ROUND_SHARE = 0.6
#: Wall-clock budget of one run before the watchdog fails it (the driver
#: allows 180 s).
WATCHDOG_S = 150.0
OUT_DIR = Path(__file__).resolve().parent / "out"

clock = time.perf_counter


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=list(schema.WORKLOADS))
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float,
                        default=float(schema.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the self-check tests; the "
                             "result is stamped and refused by compare.py")
    parser.add_argument("--fail-after-rounds", type=int, default=None,
                        help=argparse.SUPPRESS)  # self-check: injected error
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    """Peak resident set of the harness plus its largest reaped child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def host_facts(args, sizes: dict) -> dict:
    import numpy

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": bool(args.smoke), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "sizes": sizes}


def _measure(workload, seconds: float, trace: bool, fail_after, checkpoint):
    """Whole rounds until ``seconds`` have passed. Returns the untraced
    rounds, the traced rounds and the span recorder (``None`` untraced)."""
    from benchmarks.e2e.spans import SpanRecorder

    rec = SpanRecorder() if trace else None
    untraced, traced = [], []
    budget = seconds * (TRACED_ROUND_SHARE if trace else 1.0)
    need = 2 * MIN_ROUNDS if trace else MIN_ROUNDS
    t_end = clock() + budget
    index = 0
    while index < need or clock() < t_end:
        if trace and index % 2:
            traced.append(workload.round(index, rec))
        else:
            untraced.append(workload.round(index))
        index += 1
        checkpoint()
        if fail_after is not None and index >= fail_after:
            raise RuntimeError("injected failure (self-check)")
    return untraced, traced, rec


def _end_to_end(setups, rounds) -> dict:
    from benchmarks.e2e.workloads import percentile

    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": statistics.median(r.units / r.wall
                                              for r in rounds),
        "latency_p50_ms": 1e3 * statistics.median(
            statistics.median(r.latencies) for r in rounds),
        "latency_p99_ms": 1e3 * statistics.median(
            percentile(r.latencies, 99) for r in rounds),
    }


def _write_trace(workload_name: str, rec, values: dict) -> None:
    """Spans were kept in memory during the run; write them out now."""
    spans = rec.closed()
    t0 = min(s.t0 for s in spans)
    index = {id(s): i for i, s in enumerate(spans)}
    doc = {
        "workload": workload_name,
        "layers": {k: v for k, v in values.items()
                   if k.startswith(("self_share.", "closure", "unattrib"))},
        "span_count": len(spans),
        # name, track, parent index, start and end in ms from the first span
        "spans": [[f"{s.layer}.{s.name}", s.track, index.get(id(s.parent), -1),
                   round(1e3 * (s.t0 - t0), 4), round(1e3 * (s.t1 - t0), 4)]
                  for s in spans[:20_000]],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{workload_name}.json").write_text(json.dumps(doc))


def run(args, checkpoint) -> dict:
    """One guarded run; returns the result document. ``checkpoint()``
    raises if a signal asked the run to stop."""
    from benchmarks.e2e import workloads

    sizes = (workloads.SMOKE_SIZES if args.smoke
             else workloads.SIZES)[args.workload]
    cls = workloads.WORKLOAD_CLASSES[args.workload]
    trace = bool(args.trace)
    setups: list[float] = []
    while not trace and (
            len(setups) < SETUP_REPEATS - 1
            or (sum(setups) < SETUP_BUDGET_S
                and len(setups) < SETUP_MAX_REPEATS - 1)):
        with ExitStack() as stack:
            t0 = clock()
            cls(args.seed, sizes).open(stack)
            setups.append(clock() - t0)
        checkpoint()
    workload = cls(args.seed, sizes)
    with ExitStack() as stack:
        t0 = clock()
        workload.open(stack)
        setups.append(clock() - t0)
        checkpoint()
        untraced, traced, rec = _measure(workload, args.seconds, trace,
                                         args.fail_after_rounds, checkpoint)
        attempted, failed = workload.verify(untraced + traced)
        values = (workload.layer_metrics(rec, traced, untraced) if trace
                  else _end_to_end(setups, untraced))
    # Pools are closed and reaped: children count towards the peak now.
    if trace:
        _write_trace(args.workload, rec, values)
        declared = {n: u for n, u, _ in schema.PER_LAYER}
        unknown = set(values) - set(declared)
        if unknown:
            raise schema.SchemaError(f"undeclared metrics: {sorted(unknown)}")
        values = {name: values.get(name, 0) for name in declared}
    else:
        values["peak_rss_mb"] = _peak_rss_mb()
        declared = {n: u for n, u, _, _ in schema.END_TO_END}
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": declared[name]}
                    for name in declared},
    }
    if args.smoke:
        result["smoke"] = True
    schema.validate_result(result, trace=trace)
    rounds = len(untraced) + len(traced)
    closure_share = values.get("closure_share")
    if trace and not 0.90 <= closure_share <= 1.10:
        print(f"warning: closure_share {closure_share:.3f} outside 0.90-1.10; "
              f"unattributed {values['unattributed_ms']:.3f} ms per round")
    print(f"{args.workload}: seed {args.seed}, {rounds} rounds, attempted "
          f"{attempted}, succeeded {attempted - failed}, failed {failed}")
    for name, entry in result["metrics"].items():
        print(f"  {name:36s} {entry['value']:>16.6g} {entry['unit']}")
    print("host: " + json.dumps(host_facts(args, sizes), sort_keys=True))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    procguard.prepare_environment()
    try:
        import benchmarks.e2e.workloads  # noqa: F401  (pulls in repro)
    except ImportError as exc:
        print(f"benchmarks/e2e: cannot import the program under test "
              f"(src/repro): {exc}", file=sys.stderr)
        return 2
    with procguard.guarded(WATCHDOG_S) as checkpoint:
        result = run(args, checkpoint)
        checkpoint()
    # Only a run that left nothing behind prints a result.
    print(json.dumps(result))
    return 0 if result["correct"] else 1

"""Compare sets of runs against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A.json            # spreads of one set
    python3 benchmarks/e2e/compare.py A.json B.json     # parent A vs change B

Per workload and end-to-end metric: the median and quartiles of each
set, the spread (distance between the quartiles as a share of the
median), the relative change of B's median with A's as the base, the
bound, and a verdict:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``worse`` — it is;
* ``unresolved`` — a set's spread is wider than the bound, so the
  medians cannot be told apart (unless every run of B reads better than
  every run of A, which is ``ok``).

With one file the verdict is about the spread alone: ``steady`` (within
a third of the bound), ``ok`` (within the bound) or ``unresolved``.
Exit code 1 if any row is ``worse`` or ``unresolved``, or any run failed.
Files are written by ``collect.py``; smoke runs are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_bounds(path: Path = ROOT / "BENCHMARK.json") -> dict:
    """metric → (better, bound) from ``BENCHMARK.json``."""
    doc = json.loads(path.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in doc["end_to_end"]}


def load_runs(path: Path) -> dict:
    """workload → metric → values of the untraced runs in ``path``;
    also checks that nothing failed and nothing is a smoke run."""
    table: dict[str, dict[str, list[float]]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        host, result = run["host"], run["result"]
        if host.get("smoke") or result.get("smoke"):
            raise SystemExit(f"{path}: smoke runs are not measurements")
        if result["failed"] or not result["correct"]:
            raise SystemExit(f"{path}: {host['workload']} seed {host['seed']} "
                             f"failed {result['failed']} of "
                             f"{result['attempted']}")
        if host["trace"]:
            continue
        per_metric = table.setdefault(host["workload"], {})
        for name, entry in result["metrics"].items():
            per_metric.setdefault(name, []).append(entry["value"])
    return table


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, spread)``; spread is (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    med_a, _, _, spread_a = summary(a)
    med_b, _, _, spread_b = summary(b)
    if max(spread_a, spread_b) > bound:
        separated = (max(b) < min(a) if better == "lower"
                     else min(b) > max(a))
        return "ok" if separated else "unresolved"
    return "worse" if worse_by(med_a, med_b, better) > bound else "ok"


def spread_verdict(values: list[float], bound: float) -> str:
    spread = summary(values)[3]
    if spread <= bound / 3:
        return "steady"
    return "ok" if spread <= bound else "unresolved"


def _cell(values: list[float]) -> str:
    median, q1, q3, spread = summary(values)
    return f"{median:>11.5g} [{q1:>10.5g} {q3:>10.5g}] {100 * spread:5.1f}%"


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv if argv is not None else sys.argv[1:])]
    if len(paths) not in (1, 2):
        print(__doc__)
        return 2
    bounds = load_bounds()
    sets = [load_runs(p) for p in paths]
    bad = 0
    head = f"{'workload':11s} {'metric':17s} {'A median [q1 q3] spread':>43s}"
    if len(sets) == 2:
        head += f" {'B median [q1 q3] spread':>43s} {'B vs A':>8s}"
    print(head + f" {'bound':>6s} verdict")
    for workload, metrics in sets[0].items():
        for name, (better, bound) in bounds.items():
            a = metrics[name]
            row = f"{workload:11s} {name:17s} {_cell(a)}"
            if len(sets) == 1:
                # setup_s is judged on its medians only, never its spread
                word = ("-" if name == "setup_s"
                        else spread_verdict(a, bound))
            else:
                b = sets[1][workload][name]
                delta = (statistics.median(b) - statistics.median(a)) \
                    / statistics.median(a)
                row += f" {_cell(b)} {100 * delta:+7.1f}%"
                word = verdict(a, b, better, bound)
            bad += word in ("worse", "unresolved")
            print(f"{row} {100 * bound:5.0f}% {word}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

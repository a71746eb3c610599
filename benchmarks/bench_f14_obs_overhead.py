"""F14 — Observability overhead on the MC hot path.

Three claims for the obs layer, measured on F1's MC speedup configuration:

1. **Disabled is free** — constructing the pricer with a *disabled*
   tracer (``Tracer(enabled=False)``) costs nothing measurable: every
   call site gates on the tracer's truthiness, so the disabled path is
   one branch. Its measured overhead must sit at noise level (< 5%,
   same budget the fault layer meets in F13).
2. **Enabled is cheap** — a live tracer recording every phase and
   per-rank span adds < 5% wall-clock: span recording is append-only
   (no formatting, no I/O on the hot path; exporters run after the run).
3. **Full observability is cheap** — a live tracer *plus* a metrics
   registry (quantile histograms on every engine/task observation) *plus*
   a run ledger appending a canonical-JSON record per run stays under the
   same 5% budget: histogram observation is two dict updates and a
   ``log2``, and the ledger writes one line per *run*, not per task.

The variants are timed interleaved (bare → disabled → enabled → full per
repeat) so clock drift and cache state hit all variants equally; the best
of 7 repeats is compared (min is the noise-resistant estimator, which
keeps the 5% gate stable at CI's quick scale where scheduler jitter
exceeds the budget).
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from repro.core import ParallelMCPricer
from repro.obs import MetricsRegistry, RunLedger, Tracer
from repro.utils import Table
from repro.workloads import basket_workload

N_PATHS = 200_000  # F1's MC speedup configuration
P = 8
REPEATS = 7
BUDGET = 0.05


def _measure(n_paths: int = N_PATHS, repeats: int = REPEATS) -> dict:
    """Interleaved best-of-N wall-clock per observability variant."""
    w = basket_workload(2)
    live = Tracer()
    tmpdir = tempfile.mkdtemp(prefix="f14_ledger_")
    full = ParallelMCPricer(n_paths, seed=1, tracer=Tracer())
    full.metrics = MetricsRegistry()
    full.ledger = RunLedger(Path(tmpdir) / "runs.jsonl")
    pricers = {
        "bare (no tracer)": ParallelMCPricer(n_paths, seed=1),
        "disabled tracer": ParallelMCPricer(
            n_paths, seed=1, tracer=Tracer(enabled=False)),
        "enabled tracer": ParallelMCPricer(n_paths, seed=1, tracer=live),
        "tracer+metrics+ledger": full,
    }
    samples = {name: [] for name in pricers}
    for _ in range(repeats):
        for name, pricer in pricers.items():
            live.clear()  # measure steady-state recording, not list growth
            t0 = time.perf_counter()
            pricer.price(w.model, w.payoff, w.expiry, P)
            samples[name].append(time.perf_counter() - t0)
    return {name: min(ts) for name, ts in samples.items()}


def build_f14_overhead(n_paths: int = N_PATHS,
                       repeats: int = REPEATS) -> tuple[Table, dict]:
    bests = _measure(n_paths, repeats)
    t_bare = bests["bare (no tracer)"]
    overheads = {name: t / t_bare - 1.0 for name, t in bests.items()}
    table = Table(
        ["variant", "best wall (s)", "overhead"],
        title=f"F14 — obs overhead on MC, N={n_paths}, P={P} "
              f"(best of {repeats}, interleaved)",
        floatfmt=".4g",
    )
    for name, t in bests.items():
        table.add_row([name, t, overheads[name]])
    return table, overheads


def test_f14_obs_overhead(benchmark, show):
    w = basket_workload(2)
    traced = ParallelMCPricer(N_PATHS, seed=1, tracer=Tracer())
    benchmark(lambda: traced.price(w.model, w.payoff, w.expiry, P))

    table, overheads = build_f14_overhead()
    show(table.render())
    disabled = overheads["disabled tracer"]
    enabled = overheads["enabled tracer"]
    full = overheads["tracer+metrics+ledger"]
    assert disabled < BUDGET, f"disabled-tracer overhead {disabled:.1%} ≥ 5%"
    assert enabled < BUDGET, f"enabled-tracer overhead {enabled:.1%} ≥ 5%"
    assert full < BUDGET, \
        f"tracer+metrics+ledger overhead {full:.1%} ≥ 5%"


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    # Quick mode (CI smoke): half-size problem — still long enough per run
    # (~20 ms) that scheduler jitter stays well below the 5% budget.
    table, overheads = (build_f14_overhead(100_000, 5) if quick
                        else build_f14_overhead())
    print(table.render())
    failed = {name: ov for name, ov in overheads.items() if ov >= BUDGET}
    if failed:
        for name, ov in failed.items():
            print(f"FAIL: {name} overhead {ov:.1%} ≥ {BUDGET:.0%}",
                  file=sys.stderr)
        raise SystemExit(1)
    print(f"OK: all variants under the {BUDGET:.0%} budget")

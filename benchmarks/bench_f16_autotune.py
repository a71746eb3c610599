"""F16 — The obs → autotuner loop: chunking that adapts to stragglers.

ROADMAP item 4 closes here: observed ``task_latency`` quantiles feed back
into :class:`~repro.parallel.backends.ChunkAutotuner`, which shrinks the
chunk size when the p99/p50 dispersion says the workload stragglers.

The injected scenario is the classic slow-node shape: four *adjacent*
ranks of a 64-rank MC job run on a degraded node (a real injected sleep
per task via ``FaultPolicy.straggler_sleep``). Static chunking welds
those four slow tasks into one chunk — one worker serializes every
straggler while the rest of the pool idles. The obs-driven loop runs the
job once, reads the ``task_latency{backend=thread}`` histogram's p99/p50
ratio from the metrics registry, and repartitions with the shrunken
chunk — the pool's dynamic scheduling then spreads the stragglers across
workers, so the makespan drops toward one straggler delay instead of
four back to back.

Claims:

* the autotuner's dispersion estimate moves (> 1) after observing the
  histogram, and the adapted chunk is strictly smaller than the static
  one;
* the adapted run is measurably faster than the static-chunk run on the
  same fault plan (gate: < 80% of static wall);
* prices are **bitwise identical** across both runs — chunking is
  transport-only, the paper's estimator invariance survives the tuner.
"""

from __future__ import annotations

from repro.engine import ParallelMCPricer
from repro.obs import MetricsRegistry
from repro.parallel import ThreadBackend
from repro.parallel.backends import ChunkAutotuner, suggest_chunksize
from repro.parallel.faults import FaultEvent, FaultKind, FaultPlan, FaultPolicy
from repro.utils import Table
from repro.workloads import basket_workload

P = 64                  # ranks (= tasks per map)
WORKERS = 4
N_PATHS = 64_000        # light compute: the stragglers dominate
SLEEP_S = 0.03          # real injected delay per straggler task
STRAGGLER_RANKS = (0, 1, 2, 3)   # adjacent — a single degraded node


def _straggler_plan() -> FaultPlan:
    events = tuple(FaultEvent(r, FaultKind.STRAGGLER, slowdown=2.0)
                   for r in STRAGGLER_RANKS)
    return FaultPlan(events=events, seed=16)


def _run(chunksize: int, metrics: MetricsRegistry | None = None):
    backend = ThreadBackend(WORKERS)
    if metrics is not None:
        backend.metrics = metrics
    w = basket_workload(2)
    pricer = ParallelMCPricer(
        N_PATHS, seed=7, backend=backend, chunksize=chunksize,
        faults=_straggler_plan(),
        policy=FaultPolicy(mode="retry", straggler_sleep=SLEEP_S),
    )
    try:
        return pricer.price(w.model, w.payoff, w.expiry, P)
    finally:
        backend.close()


def build_f16_table():
    static_chunk = suggest_chunksize(P, WORKERS)
    metrics = MetricsRegistry()

    # Pass 1 — static chunking, observed: the ledger/metrics run the
    # autotuner learns from.
    observed = _run(static_chunk, metrics)

    # The feedback loop: registry histogram -> dispersion -> new chunk.
    tuner = ChunkAutotuner(WORKERS)
    hist = metrics.histogram("task_latency", backend="thread")
    tuner.observe_histogram(hist)
    adapted_chunk = tuner.chunksize(P)

    # Pass 2/3 — same fault plan, static vs adapted chunk, fresh timings.
    static = _run(static_chunk)
    adapted = _run(adapted_chunk)

    table = Table(
        ["variant", "chunk", "wall [s]", "speedup", "price"],
        title=(f"F16 — obs-driven chunking under stragglers "
               f"(P={P}, {WORKERS} workers, {len(STRAGGLER_RANKS)} adjacent "
               f"stragglers x {SLEEP_S:g}s)"),
        floatfmt=".6g",
    )
    table.add_row(["static", static_chunk, static.wall_time, 1.0,
                   static.price])
    table.add_row(["obs-adapted", adapted_chunk, adapted.wall_time,
                   static.wall_time / max(adapted.wall_time, 1e-12),
                   adapted.price])
    data = {
        "static_chunk": static_chunk,
        "adapted_chunk": adapted_chunk,
        "dispersion": tuner.dispersion,
        "p50": hist.quantile(0.5),
        "p99": hist.quantile(0.99),
        "static": static,
        "adapted": adapted,
        "observed": observed,
    }
    return table, data


def test_f16_autotune(benchmark, show):
    table, data = build_f16_table()
    show(table.render())
    show(f"dispersion: p99/p50 = {data['p99']:.4g}/{data['p50']:.4g} "
         f"-> {data['dispersion']:.3g}")
    benchmark(lambda: _run(data["adapted_chunk"]))

    # The loop actually moved the knob.
    assert data["dispersion"] > 1.0
    assert data["adapted_chunk"] < data["static_chunk"]
    # Chunking is transport-only: all three runs price bitwise equal.
    prices = {data["static"].price, data["adapted"].price,
              data["observed"].price}
    stderrs = {data["static"].stderr, data["adapted"].stderr}
    assert len(prices) == 1, "chunk adaptation changed the price"
    assert len(stderrs) == 1
    # And it paid: the adapted run dodges the serialized straggler chunk.
    assert data["adapted"].wall_time < 0.8 * data["static"].wall_time, (
        f"adapted {data['adapted'].wall_time:.3f}s not faster than "
        f"static {data['static'].wall_time:.3f}s")


if __name__ == "__main__":
    tbl, data = build_f16_table()
    print(tbl.render())
    print(f"dispersion : p99/p50 = {data['p99']:.4g}/{data['p50']:.4g} "
          f"-> {data['dispersion']:.3g} "
          f"(chunk {data['static_chunk']} -> {data['adapted_chunk']})")
    ok = (data["static"].price == data["adapted"].price
          and data["adapted"].wall_time < 0.8 * data["static"].wall_time)
    print("OK: bitwise-equal prices, adapted run faster" if ok
          else "FAIL: see table")
    raise SystemExit(0 if ok else 1)

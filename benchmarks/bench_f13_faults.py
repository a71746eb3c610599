"""F13 — Fault-injection overhead and recovered-run quality.

Two claims for the resilience layer:

1. **Zero-fault overhead** — arming the fault machinery (constructing the
   pricer with a fault plan + policy) costs < 5% wall-clock on F1's MC
   speedup configuration when no fault fires: the fault-free path is a
   single branch away from the pre-resilience code.
2. **Recovered-run quality** — with one of P ranks crashing transiently,
   ``retry`` reproduces the fault-free price *bitwise* (the replayed rank
   re-draws an identical RNG substream); with a *permanent* 1/P rank loss,
   ``degrade`` stays within sampling error of the fault-free price while
   honestly widening the reported CI (fewer paths ⇒ larger stderr).
"""

from __future__ import annotations

import statistics
import time

from repro.engine import ParallelMCPricer
from repro.parallel import FaultPlan, FaultPolicy
from repro.utils import Table
from repro.workloads import basket_workload

N_PATHS = 200_000  # F1's MC speedup configuration
P = 8
LOST_RANK = 3
REPEATS = 7


def _median_seconds(fn, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def build_f13_overhead() -> tuple[Table, float]:
    """Median wall-clock of the F1 config, bare vs armed-but-quiet."""
    w = basket_workload(2)
    bare = ParallelMCPricer(N_PATHS, seed=1)
    armed = ParallelMCPricer(N_PATHS, seed=1, faults=FaultPlan.none(),
                             policy=FaultPolicy(mode="retry", max_retries=3))
    # Interleave the two measurements so drift hits both equally.
    t_bare = _median_seconds(lambda: bare.price(w.model, w.payoff, w.expiry, P))
    t_armed = _median_seconds(lambda: armed.price(w.model, w.payoff, w.expiry, P))
    overhead = t_armed / t_bare - 1.0
    table = Table(
        ["variant", "median wall (s)", "overhead"],
        title=f"F13a — zero-fault overhead, N={N_PATHS}, P={P} "
              f"(median of {REPEATS})",
        floatfmt=".4g",
    )
    table.add_row(["fault-free (no plan)", t_bare, 0.0])
    table.add_row(["armed, zero faults", t_armed, overhead])
    return table, overhead


def build_f13_recovery() -> tuple[Table, dict]:
    """Price quality under a transient crash (retry) and a permanent
    1/P rank loss (degrade)."""
    w = basket_workload(2)
    base = ParallelMCPricer(N_PATHS, seed=1).price(w.model, w.payoff,
                                                   w.expiry, P)
    retried = ParallelMCPricer(
        N_PATHS, seed=1, faults=FaultPlan.single_crash(LOST_RANK),
        policy="retry",
    ).price(w.model, w.payoff, w.expiry, P)
    degraded = ParallelMCPricer(
        N_PATHS, seed=1,
        faults=FaultPlan.single_crash(LOST_RANK, permanent=True),
        policy="degrade",
    ).price(w.model, w.payoff, w.expiry, P)

    table = Table(
        ["scenario", "price", "stderr", "Δ/σ vs base", "sim T(P) (s)"],
        title=f"F13b — recovery quality, N={N_PATHS}, P={P}, "
              f"rank {LOST_RANK} faulted",
        floatfmt=".6g",
    )
    rows = {
        "fault-free": base,
        "transient crash + retry": retried,
        f"permanent loss ({1}/{P} ranks) + degrade": degraded,
    }
    for name, res in rows.items():
        drift = abs(res.price - base.price) / base.stderr
        table.add_row([name, res.price, res.stderr, drift, res.sim_time])
    return table, {"base": base, "retried": retried, "degraded": degraded}


def test_f13_fault_overhead_and_recovery(benchmark, show):
    w = basket_workload(2)
    armed = ParallelMCPricer(N_PATHS, seed=1, faults=FaultPlan.none(),
                             policy="retry")
    benchmark(lambda: armed.price(w.model, w.payoff, w.expiry, P))

    overhead_table, overhead = build_f13_overhead()
    show(overhead_table.render())
    assert overhead < 0.05, f"zero-fault overhead {overhead:.1%} ≥ 5%"

    recovery_table, runs = build_f13_recovery()
    show(recovery_table.render())
    base, retried, degraded = (runs["base"], runs["retried"],
                               runs["degraded"])
    # Transient fault + retry is invisible in the price, visible in T(P).
    assert retried.price == base.price
    assert retried.stderr == base.stderr
    assert retried.sim_time > base.sim_time
    # Degraded run: honest CI widening, price within sampling error.
    assert degraded.stderr > base.stderr
    assert degraded.meta["n_paths"] < N_PATHS
    assert abs(degraded.price - base.price) < 5 * base.stderr


if __name__ == "__main__":
    print(build_f13_overhead()[0].render())
    print(build_f13_recovery()[0].render())

"""F19 — Execute-stage scheduling: stealing vs LPT vs static chunks.

Two halves, one claim: when task durations are heterogeneous and the
heterogeneity is not known in advance, work stealing recovers the
balance that static block chunks forfeit and that LPT can only buy with
good cost estimates.

**F19a (real wall clock).** The F16 straggler shape — a 64-rank MC job on
a 4-worker thread pool with four *adjacent* straggler ranks (real
injected sleeps) — but instead of re-chunking, the run swaps in the
:class:`~repro.parallel.sched.WorkStealingScheduler`. Static chunking
welds all four stragglers into one worker's chunk, serializing them;
stealing holds one task in flight per worker, so when the straggler
node's queue backs up the idle workers drain it. Gates: steal wall
< 80 % of static wall, prices **bitwise identical** (scheduling is
placement only).

**F19b (virtual time, byte-reproducible).** A skewed lattice-style task
set (geometric per-level costs) swept across worker counts through
:func:`~repro.parallel.sched.simulate_schedule`. LPT is fed *uniform*
estimates — the stale-belief scenario: the planner thinks tasks are
equal, so its "longest first" order is no order at all — while stealing
needs no estimates. Gates: stealing's makespan beats stale-LPT on at
least one curve point and never exceeds static anywhere; the steal
schedule digest replays byte-identically.

``--smoke`` shrinks paths and the sweep; the gates are identical. Runs
land in the ambient ledger (``REPRO_LEDGER``) with ``extra["sched"]``
rows, which is how the CI perf-regression diff sees this benchmark.
"""

from __future__ import annotations

import sys

from repro.engine import ParallelMCPricer
from repro.parallel import ThreadBackend
from repro.parallel.backends import suggest_chunksize
from repro.parallel.faults import FaultEvent, FaultKind, FaultPlan, FaultPolicy
from repro.parallel.sched import WorkStealingScheduler, simulate_schedule
from repro.utils import Table
from repro.workloads import basket_workload

P = 64                   # ranks (= tasks per map)
WORKERS = 4
SLEEP_S = 0.03           # real injected delay per straggler task
STRAGGLER_RANKS = (0, 1, 2, 3)   # adjacent — a single degraded node
WALL_GATE = 0.8          # steal must finish under this fraction of static


def _straggler_plan() -> FaultPlan:
    events = tuple(FaultEvent(r, FaultKind.STRAGGLER, slowdown=2.0)
                   for r in STRAGGLER_RANKS)
    return FaultPlan(events=events, seed=19)


def _run(n_paths: int, scheduler=None, chunksize=None):
    backend = ThreadBackend(WORKERS)
    w = basket_workload(2)
    pricer = ParallelMCPricer(
        n_paths, seed=7, backend=backend, chunksize=chunksize,
        scheduler=scheduler, faults=_straggler_plan(),
        policy=FaultPolicy(mode="retry", straggler_sleep=SLEEP_S),
    )
    try:
        return pricer.price(w.model, w.payoff, w.expiry, P)
    finally:
        backend.close()


def build_f19a_stragglers(n_paths: int = 64_000):
    """Real wall clock: static chunks vs stealing on the straggler node."""
    static_chunk = suggest_chunksize(P, WORKERS)
    static = _run(n_paths, chunksize=static_chunk)
    steal = _run(n_paths, scheduler=WorkStealingScheduler(seed=19))

    table = Table(
        ["variant", "wall [s]", "speedup", "steals", "price"],
        title=(f"F19a — scheduling under stragglers (P={P}, {WORKERS} "
               f"workers, {len(STRAGGLER_RANKS)} adjacent stragglers x "
               f"{SLEEP_S:g}s)"),
        floatfmt=".6g",
    )
    sched_report = steal.meta["fault_report"].sched
    table.add_row([f"static chunk={static_chunk}", static.wall_time, 1.0,
                   0, static.price])
    table.add_row(["work stealing", steal.wall_time,
                   static.wall_time / max(steal.wall_time, 1e-12),
                   sched_report.steals if sched_report else 0, steal.price])
    return table, {"static": static, "steal": steal,
                   "sched": sched_report}


def _skewed_costs(n_tasks: int) -> list[float]:
    """Lattice-style skew: a few heavy levels, a long tail of light ones."""
    return [8.0 if i % 16 == 0 else (2.0 if i % 4 == 0 else 0.5)
            for i in range(n_tasks)]


def build_f19b_curve(n_tasks: int = 96, p_list=(2, 4, 8, 16)):
    """Virtual-time curve: static vs stale-LPT vs stealing, by workers."""
    costs = _skewed_costs(n_tasks)
    uniform = [1.0] * n_tasks
    table = Table(
        ["workers", "static [s]", "stale-LPT [s]", "steal [s]",
         "steal vs LPT", "steals"],
        title=(f"F19b — virtual-time makespans, {n_tasks} skewed tasks "
               f"(LPT fed uniform estimates)"),
        floatfmt=".4g",
    )
    rows = []
    for p in p_list:
        static = simulate_schedule(costs, p, strategy="static")
        lpt = simulate_schedule(costs, p, strategy="lpt",
                                estimates=uniform)
        steal = simulate_schedule(costs, p, strategy="steal", seed=19)
        replay = simulate_schedule(costs, p, strategy="steal", seed=19)
        rows.append({"p": p, "static": static.makespan,
                     "lpt": lpt.makespan, "steal": steal.makespan,
                     "steals": steal.stats.steals,
                     "replay_ok": steal.digest() == replay.digest()})
        table.add_row([p, static.makespan, lpt.makespan, steal.makespan,
                       lpt.makespan / max(steal.makespan, 1e-12),
                       steal.stats.steals])
    return table, rows


def check_gates(a, rows) -> list[str]:
    failures = []
    if a["static"].price != a["steal"].price:
        failures.append("scheduling moved the price "
                        f"({a['static'].price!r} != {a['steal'].price!r})")
    if a["static"].stderr != a["steal"].stderr:
        failures.append("scheduling moved the stderr")
    if not a["steal"].wall_time < WALL_GATE * a["static"].wall_time:
        failures.append(
            f"steal wall {a['steal'].wall_time:.3f}s not under "
            f"{WALL_GATE:.0%} of static {a['static'].wall_time:.3f}s")
    if not any(r["steal"] < r["lpt"] for r in rows):
        failures.append("stealing never beat stale-estimate LPT")
    if any(r["steal"] > r["static"] + 1e-9 for r in rows):
        failures.append("stealing lost to static chunks on the curve")
    if not all(r["replay_ok"] for r in rows):
        failures.append("steal schedule digest did not replay")
    return failures


# ---------------------------------------------------------------------------
# pytest lane (smoke scale; the gates are the acceptance criteria)
# ---------------------------------------------------------------------------


def test_f19_sched(benchmark, show):
    table_a, a = build_f19a_stragglers(n_paths=32_000)
    show(table_a.render())
    table_b, rows = build_f19b_curve()
    show(table_b.render())
    failures = check_gates(a, rows)
    assert not failures, "; ".join(failures)

    benchmark(lambda: build_f19b_curve(n_tasks=48, p_list=(4,)))


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    table_a, a = build_f19a_stragglers(n_paths=16_000 if smoke else 64_000)
    print(table_a.render())
    print()
    table_b, rows = build_f19b_curve(
        n_tasks=48 if smoke else 96,
        p_list=(4, 8) if smoke else (2, 4, 8, 16))
    print(table_b.render())
    failures = check_gates(a, rows)
    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        raise SystemExit(1)
    best = max(r["lpt"] / max(r["steal"], 1e-12) for r in rows)
    print(f"OK: steal {a['static'].wall_time / a['steal'].wall_time:.2f}x "
          f"over static chunks under stragglers (bitwise-equal prices); "
          f"beats stale-LPT up to {best:.2f}x on the virtual curve")
    raise SystemExit(0)

"""Risk sweeps as gateway traffic: the PR-8 follow-on.

Two shapes of bridge between :mod:`repro.risk` and the sharded gateway:

* :func:`risk_book` — a *book* of shocked contracts (base strike ladder
  × stress scenarios) for the random load generator: with
  ``LoadgenConfig(book="risk")`` the existing open/closed-loop traffic
  samples near-duplicate bumped contracts, which is what makes
  ``repro gateway --book risk`` cache-hit-rich, realistic risk traffic.
* :func:`sweep_requests` + :func:`sweep_schedule` — a *deterministic
  sweep*: the base book followed by every scenario's revaluations, as
  lane-tagged :class:`~repro.gateway.admission.GatewayRequest` arrivals
  (base book ``interactive`` — the desk wants the live marks now;
  revaluations ``bulk`` with loose deadlines). :func:`run_risk_sweep`
  replays that schedule on the virtual clock, repeated passes making the
  second sweep cache-hot, and appends a ``kind="risk"`` ledger record
  with scenarios/sec and hit-rate extras.

Everything is seeded and pure-functional, so the ``risk`` determinism
check replays decision logs and price streams bitwise.
"""

from __future__ import annotations

import time

from repro.errors import ValidationError
from repro.gateway.admission import GatewayRequest
from repro.gateway.loadgen import CostModel
from repro.gateway.simulate import GatewayRunResult, run_schedule
from repro.obs.ledger import (RunRecord, active_ledger, config_digest,
                              git_sha, new_run_id)
from repro.risk.scenarios import (base_scenario, scenario_digest,
                                  shock_book, stress_scenarios)
from repro.risk.var import book_requests
from repro.serve.batching import PricingRequest
from repro.utils.validation import check_positive, check_positive_int
from repro.workloads.generators import Workload, strike_strip

__all__ = ["risk_book", "sweep_requests", "sweep_schedule",
           "run_risk_sweep", "risk_run_record"]

#: Deadline budgets (in service-time multiples, scaled by the caller's
#: deadline scale) for the two sweep lanes.
_INTERACTIVE_DEADLINE = 8.0
_BULK_DEADLINE = 120.0


def risk_book(n_contracts: int, *, dim: int = 2, seed: int = 0,
              n_base: int = 4) -> list[Workload]:
    """A book of ``n_contracts`` shocked contracts for the load generator.

    A base ``n_base``-strike ladder on one shared ``dim``-asset market,
    crossed with seeded stress scenarios: contract ``k`` is base strike
    ``k % n_base`` under scenario ``k // n_base`` (scenario 0 is the
    identity, so the unshocked ladder is always in the book). Scenario
    bumps are near-duplicates of each other — risk traffic is exactly
    the shape shard caches are for.
    """
    n = check_positive_int("n_contracts", n_contracts)
    base = strike_strip(min(n, check_positive_int("n_base", n_base)),
                        dim=dim)
    n_scen = (n + len(base) - 1) // len(base)
    scenarios = [base_scenario()]
    if n_scen > 1:
        scenarios.extend(stress_scenarios(dim, n_scen - 1, seed=seed))
    out: list[Workload] = []
    for scenario in scenarios:  # the last one takes what is left of n
        out.extend(shock_book(base[:n - len(out)], scenario,
                              prefix=f"risk-{scenario.label}-"))
    return out


def sweep_requests(book, scenarios, *, n_paths: int = 2_000,
                   seed: int = 0) -> list[tuple[str, PricingRequest]]:
    """The deterministic MC sweep (p = 1) as ``(lane, request)`` pairs, in
    order: the base book (interactive), then every scenario's
    revaluations (bulk). Common seed throughout — the cacheable CRN
    shape."""
    book = list(book)
    if not book:
        raise ValidationError("sweep_requests needs a non-empty book")
    settings = dict(engine="mc", n_paths=n_paths, seed=seed, p=1)
    out = [("interactive", r) for r in book_requests(book, **settings)]
    for scenario in scenarios:
        shocked = shock_book(book, scenario, prefix=f"{scenario.label}-")
        out.extend(("bulk", r) for r in book_requests(shocked, **settings))
    return out


def sweep_schedule(tagged_requests, *, rate: float, repeats: int = 1,
                   deadline_scale_s: float = 4e-3,
                   ) -> list[tuple[float, GatewayRequest]]:
    """Evenly spaced lane-tagged arrivals for a sweep, ``repeats`` passes.

    Pass 2+ replays the identical requests, so per-shard caches answer
    them — the steady-state risk desk shape. Deterministic: arrival
    ``i`` lands at ``i / rate``.
    """
    check_positive("rate", rate)
    check_positive_int("repeats", repeats)
    tagged = list(tagged_requests)
    schedule: list[tuple[float, GatewayRequest]] = []
    i = 0
    for _ in range(repeats):
        for lane, request in tagged:
            deadline = deadline_scale_s * (
                _INTERACTIVE_DEADLINE if lane == "interactive"
                else _BULK_DEADLINE)
            schedule.append((i / rate,
                             GatewayRequest(request=request, lane=lane,
                                            deadline_s=deadline)))
            i += 1
    return schedule


def run_risk_sweep(book, scenarios, *, n_shards: int = 2,
                   n_paths: int = 2_000, seed: int = 0, repeats: int = 2,
                   priced: bool = False) -> GatewayRunResult:
    """Drive one MC scenario sweep (p = 1) through the virtual-time
    gateway, on the default cost model and a 64-deep queue.

    Arrivals come at 1.5× the shards' all-miss capacity — overdriven
    enough that admission control matters, bounded enough that the bulk
    lane drains. Appends the usual ``kind="gateway"`` drive record plus
    one ``kind="risk"`` summary record (scenarios/sec, hit rate) to the
    ambient ledger, if any.
    """
    cost = CostModel()
    max_queue = 64
    book = list(book)
    scenarios = list(scenarios)
    tagged = sweep_requests(book, scenarios, n_paths=n_paths, seed=seed)
    miss_s = cost.miss_s(tagged[0][1])
    rate = 1.5 * n_shards / miss_s
    duration_s = (len(tagged) * repeats) / rate + miss_s * max_queue
    t0 = time.perf_counter()
    result = run_schedule(
        sweep_schedule(tagged, rate=rate, repeats=repeats,
                       deadline_scale_s=miss_s),
        n_shards=n_shards, cost=cost, duration_s=duration_s,
        max_queue=max_queue, priced=priced)
    wall = time.perf_counter() - t0
    record = risk_run_record(result, n_scenarios=len(scenarios),
                             n_contracts=len(book), engine="mc",
                             seed=seed, repeats=repeats, wall_s=wall,
                             scenarios_digest=scenario_digest(scenarios))
    ledger = active_ledger()
    if ledger is not None:
        ledger.append(record)
    return result


def risk_run_record(result: GatewayRunResult, *, n_scenarios: int,
                    n_contracts: int, engine: str, seed: int,
                    repeats: int = 1, wall_s: float | None = None,
                    scenarios_digest: str | None = None) -> RunRecord:
    """One ``kind="risk"`` ledger record summarizing a gateway drive.

    Scenarios/sec is measured in *virtual* seconds: completed requests
    over the simulated window, divided by the contracts each scenario
    revalues — deterministic in the seed, so it can sit behind a CI
    gate.
    """
    check_positive_int("n_scenarios", n_scenarios)
    check_positive_int("n_contracts", n_contracts)
    sim_window = max(result.sim_end, 1e-12)
    scen_rate = result.completed / n_contracts / sim_window
    hits = sum(result.cache_hits)
    lookups = hits + sum(result.cache_misses)
    extra = {"n_scenarios": n_scenarios, "n_contracts": n_contracts,
             "repeats": repeats, "offered": result.offered,
             "completed": result.completed, "shed": result.shed_total,
             "scenarios_per_s": scen_rate,
             "hit_rate": hits / lookups if lookups else 0.0}
    if scenarios_digest is not None:
        extra["scenarios"] = scenarios_digest
    wall = wall_s if wall_s is not None else result.wall_s
    return RunRecord(
        run_id=new_run_id(), kind="risk", engine=engine,
        config=config_digest({"n_scenarios": n_scenarios,
                              "n_contracts": n_contracts, "seed": seed,
                              "repeats": repeats,
                              "n_shards": result.n_shards}),
        backend="sim", workers=result.n_shards, p=result.n_shards,
        stages={"sweep": wall}, wall_s=wall, sim_s=result.sim_end,
        extra=extra, git=git_sha())

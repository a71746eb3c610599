"""Contract-level parallelism: the pricing *task farm*.

Besides parallelizing inside one valuation, a pricing system parallelizes
*across* a book: each contract is an independent task of heterogeneous cost
(cost ∝ paths × dimension × steps). The scheduling question — how to
assign contracts to ranks — is the classical load-balancing problem, and
experiment F10 ablates the canonical answers:

* ``block`` — contiguous chunks of the book (great locality, terrible when
  expensive contracts cluster);
* ``cyclic`` — round-robin deal (good average balance, still blind to
  costs);
* ``lpt`` — Longest-Processing-Time list scheduling on *estimated* costs
  (Graham's 4/3-approximation; the greedy near-optimum);
* ``dynamic`` — master–worker self-scheduling: contracts are handed out in
  arrival order to whichever rank frees up first, paying one dispatch
  latency (α) per assignment. Balances well without cost estimates, at the
  price of the dispatch overhead — the classic trade-off.

Placement comes from :func:`~repro.parallel.sched.simulate_schedule`, the
one virtual-time placement home: ``block`` is its ``static`` strategy,
``lpt`` its ``lpt`` strategy, and ``dynamic`` is ``lpt`` with all-zero
estimates (arrival order, earliest-free rank) over costs that include the
dispatch latency. Every schedule produces the same prices (the tasks are
independent); only the simulated makespan changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.work import WorkModel
from repro.errors import ValidationError
from repro.mc.result import MCResult
from repro.mc.variance_reduction import PlainMC
from repro.parallel.sched import simulate_schedule
from repro.parallel.simcluster import MachineSpec, SimulatedCluster
from repro.rng import Philox4x32
from repro.utils.validation import check_positive_int
from repro.workloads.generators import Workload

__all__ = ["PortfolioPricer", "PortfolioRun"]

_SCHEDULES = ("block", "cyclic", "lpt", "dynamic")


def _contract_task(task):
    """Module-level worker (picklable): one contract's plain-MC partial."""
    model, payoff, expiry, n, gen = task
    return PlainMC().partial(model, payoff, expiry, n, gen)


@dataclass(frozen=True)
class PortfolioRun:
    """A priced book plus the scheduling diagnostics."""

    results: tuple[MCResult, ...]
    p: int
    schedule: str
    sim_time: float
    per_rank_times: tuple[float, ...]
    assignment: tuple[int, ...]
    meta: dict = field(default_factory=dict)

    @property
    def imbalance(self) -> float:
        """makespan / mean rank time − 1 (0 = perfectly balanced)."""
        mean = float(np.mean(self.per_rank_times))
        if mean == 0.0:
            return 0.0
        return self.sim_time / mean - 1.0

    @property
    def total_value(self) -> float:
        return float(sum(r.price for r in self.results))


class PortfolioPricer:
    """Prices a list of :class:`Workload` contracts across ``p`` ranks.

    Parameters
    ----------
    n_paths : MC paths per contract (cost heterogeneity comes from the
        contracts' dimensions).
    schedule : "block" | "cyclic" | "lpt" | "dynamic".
    seed : master seed; contract ``i`` always prices on substream ``i``, so
        prices are schedule- and P-invariant.
    """

    def __init__(self, n_paths: int, *, schedule: str = "block", seed: int = 0):
        self.n_paths = check_positive_int("n_paths", n_paths)
        if schedule not in _SCHEDULES:
            raise ValidationError(f"schedule must be one of {_SCHEDULES}, got {schedule!r}")
        self.schedule = schedule
        self.seed = int(seed)
        self.spec = MachineSpec()
        self.work = WorkModel()

    def _price_contracts(self, workloads: list[Workload]) -> list[MCResult]:
        """Value every contract in-process, contract ``i`` on substream ``i``."""
        technique = PlainMC()
        gens = Philox4x32(self.seed, stream=0xB00C).spawn(len(workloads))
        results = []
        for w, gen in zip(workloads, gens):
            part = _contract_task((w.model, w.payoff, w.expiry, self.n_paths, gen))
            price, stderr, n_eff = technique.finalize(part)
            results.append(MCResult(price=price, stderr=stderr, n_paths=n_eff,
                                    technique="plain", meta={"contract": w.name}))
        return results

    def contract_cost(self, workload: Workload) -> float:
        """Estimated work units to price one contract."""
        return self.n_paths * self.work.mc_path_units(workload.dim, None)

    def _owners(self, costs: list[float], p: int) -> list[int]:
        """Contract → rank map under the configured schedule."""
        n = len(costs)
        if self.schedule == "cyclic":
            return [i % p for i in range(n)]
        if self.schedule == "dynamic":
            # Self-scheduling: arrival order, earliest-free rank wins; each
            # rank's clock also advances by the dispatch latency (in work
            # units), which run() charges as communication.
            dispatch = self.spec.alpha / self.spec.flop_time
            placed = simulate_schedule([c + dispatch for c in costs], p,
                                       strategy="lpt", estimates=[0.0] * n)
        else:
            placed = simulate_schedule(
                costs, p, strategy="static" if self.schedule == "block" else "lpt")
        owner = [0] * n
        for task, rank, _, _ in placed.assignments:
            owner[task] = rank
        return owner

    def run(self, workloads: list[Workload], p: int) -> PortfolioRun:
        """Price the book on ``p`` simulated ranks."""
        p = check_positive_int("p", p)
        if not workloads:
            raise ValidationError("the portfolio must contain at least one contract")
        costs = [self.contract_cost(w) for w in workloads]
        owner = self._owners(costs, p)
        results = self._price_contracts(workloads)

        cluster = SimulatedCluster(p, self.spec)
        for i in range(len(workloads)):
            if self.schedule == "dynamic":
                # One master→worker dispatch message per contract.
                cluster.delay(owner[i], self.spec.alpha, kind="comm")
            cluster.compute(owner[i], costs[i])
        # Collect the book value at rank 0: one tiny message per contract.
        cluster.reduce(16.0, root=0, topology="tree")

        per_rank = tuple(float(a.compute) for a in cluster.accounts)
        return PortfolioRun(
            results=tuple(results),
            p=p,
            schedule=self.schedule,
            sim_time=cluster.elapsed(),
            per_rank_times=per_rank,
            assignment=tuple(owner),
            meta={"n_contracts": len(workloads), "costs": costs},
        )

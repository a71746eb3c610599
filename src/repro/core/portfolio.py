"""Contract-level parallelism: the pricing *task farm*.

Besides parallelizing inside one valuation, a pricing system parallelizes
*across* a book: each contract is an independent task of heterogeneous cost
(cost ∝ paths × dimension × steps). The scheduling question — how to
assign contracts to ranks — is the classical load-balancing problem, and
experiment F10 ablates the three canonical answers:

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

Every schedule produces the same prices (the tasks are independent); only
the simulated makespan changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.work import WorkModel
from repro.errors import ValidationError
from repro.mc.result import MCResult
from repro.mc.variance_reduction import PlainMC
from repro.parallel.backends import ExecutionBackend
from repro.parallel.partition import block_partition
from repro.parallel.simcluster import MachineSpec, SimulatedCluster
from repro.rng import Philox4x32
from repro.serve.cache import PriceCache, stable_key
from repro.utils.validation import check_positive_int
from repro.verify.contracts import describe_workload
from repro.workloads.generators import Workload

__all__ = ["PortfolioPricer", "PortfolioRun"]

_SCHEDULES = ("block", "cyclic", "lpt", "dynamic")


def _contract_task(task):
    """Module-level worker (picklable): one contract's plain-MC partial."""
    model, payoff, expiry, n, gen, steps = task
    return PlainMC().partial(model, payoff, expiry, n, gen, steps=steps)


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
        contracts' dimensions/steps).
    schedule : "block" | "cyclic" | "lpt".
    seed : master seed; contract ``i`` always prices on substream ``i``, so
        prices are schedule- and P-invariant.
    backend : optional real :class:`~repro.parallel.backends.
        ExecutionBackend` — contract valuations then run through one
        chunked ``backend.map`` (true multi-core for a process backend)
        instead of the in-process loop. Prices are bitwise identical
        either way: each contract's substream travels with its task.
    cache : optional :class:`~repro.serve.cache.PriceCache` consulted
        before any contract is valued. Keys cover the contract config
        *and* its substream index, so only true replays hit — e.g. the
        ``repro portfolio`` CLI pricing one book under four schedules
        computes the prices once. Caching (like the backend choice) only
        affects wall-clock: the simulated makespan still charges every
        contract, because the schedule ablation models the compute.
    chunksize : forwarded to ``backend.map`` (int | "auto" | None).
    """

    def __init__(
        self,
        n_paths: int,
        *,
        schedule: str = "block",
        seed: int = 0,
        spec: MachineSpec | None = None,
        work: WorkModel | None = None,
        steps: int | None = None,
        backend: ExecutionBackend | None = None,
        cache: PriceCache | None = None,
        chunksize: int | str | None = None,
    ):
        self.n_paths = check_positive_int("n_paths", n_paths)
        if schedule not in _SCHEDULES:
            raise ValidationError(f"schedule must be one of {_SCHEDULES}, got {schedule!r}")
        self.schedule = schedule
        self.seed = int(seed)
        self.spec = spec if spec is not None else MachineSpec()
        self.work = work if work is not None else WorkModel()
        self.steps = None if steps is None else check_positive_int("steps", steps)
        self.backend = backend
        self.cache = cache
        self.chunksize = chunksize

    # ------------------------------------------------------------------

    def contract_key(self, workload: Workload, index: int) -> str:
        """Cache key for contract ``index`` of a book priced by this config.

        Includes the master seed and the substream index — the price of a
        contract depends on *where in the book it sits* (substream ``i``),
        so only a true replay of the same slot may hit.
        """
        return stable_key({
            "contract": describe_workload(workload),
            # Unlike serve quotes, MCResult.meta carries the contract name,
            # so a hit must match it too.
            "name": workload.name,
            "technique": "plain",
            "n_paths": self.n_paths,
            "steps": self.steps,
            "seed": self.seed,
            "substream": index,
        })

    def _price_contracts(self, workloads: list[Workload]) -> list[MCResult]:
        """Value every contract (cache front, then inline or backend.map)."""
        technique = PlainMC()
        master = Philox4x32(self.seed, stream=0xB00C)
        gens = master.spawn(len(workloads))

        results: list[MCResult | None] = [None] * len(workloads)
        miss = list(range(len(workloads)))
        keys: list[str] | None = None
        if self.cache is not None:
            keys = [self.contract_key(w, i) for i, w in enumerate(workloads)]
            miss = []
            for i in range(len(workloads)):
                hit = self.cache.get(keys[i])
                if hit is not None:
                    results[i] = hit
                else:
                    miss.append(i)

        tasks = [
            (workloads[i].model, workloads[i].payoff, workloads[i].expiry,
             self.n_paths, gens[i], self.steps)
            for i in miss
        ]
        if self.backend is not None:
            partials = self.backend.map(_contract_task, tasks,
                                        chunksize=self.chunksize)
        else:
            partials = [_contract_task(t) for t in tasks]
        for i, part in zip(miss, partials):
            price, stderr, n_eff = technique.finalize(part)
            res = MCResult(price=price, stderr=stderr, n_paths=n_eff,
                           technique="plain",
                           meta={"contract": workloads[i].name})
            results[i] = res
            if self.cache is not None and keys is not None:
                self.cache.put(keys[i], res)
        return results  # type: ignore[return-value]

    def contract_cost(self, workload: Workload) -> float:
        """Estimated work units to price one contract."""
        return self.n_paths * self.work.mc_path_units(workload.dim, self.steps)

    def _assign(self, costs: list[float], p: int) -> list[int]:
        """Contract → rank map under the configured schedule."""
        n = len(costs)
        if self.schedule == "block":
            owner = [0] * n
            for r, (lo, hi) in enumerate(block_partition(n, p)):
                for i in range(lo, hi):
                    owner[i] = r
            return owner
        if self.schedule == "cyclic":
            return [i % p for i in range(n)]
        if self.schedule == "dynamic":
            # Self-scheduling: arrival order, earliest-free rank wins. The
            # per-dispatch latency is charged in run().
            owner = [0] * n
            loads = [0.0] * p
            dispatch = self.spec.alpha / self.spec.flop_time  # in work units
            for i in range(n):
                r = int(np.argmin(loads))
                owner[i] = r
                loads[r] += costs[i] + dispatch
            return owner
        # LPT: sort by estimated cost descending, give each task to the
        # currently least-loaded rank.
        owner = [0] * n
        loads = [0.0] * p
        for i in sorted(range(n), key=lambda k: -costs[k]):
            r = int(np.argmin(loads))
            owner[i] = r
            loads[r] += costs[i]
        return owner

    def run(self, workloads: list[Workload], p: int) -> PortfolioRun:
        """Price the book on ``p`` simulated ranks."""
        p = check_positive_int("p", p)
        if not workloads:
            raise ValidationError("the portfolio must contain at least one contract")
        costs = [self.contract_cost(w) for w in workloads]
        owner = self._assign(costs, p)

        # Valuation (real wall-clock: cache front + optional backend.map) is
        # decoupled from the simulated schedule accounting below — prices
        # are bitwise invariant to backend/cache, makespans charge all work.
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

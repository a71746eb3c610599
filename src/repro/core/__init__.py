"""The paper's contribution: parallel pricing algorithms for
multidimensional derivatives, with a deterministic performance model.

* :class:`ParallelMCPricer` — path-wise domain decomposition of Monte
  Carlo: paths are block-partitioned across ranks, each rank owns a
  provably disjoint RNG substream and accumulates O(1)-size sufficient
  statistics, which a tree reduction combines. Embarrassingly parallel
  compute with a logarithmic reduction — the near-linear-speedup workload.
* :class:`ParallelLatticePricer` — level-synchronous slab decomposition of
  the (multidimensional) BEG lattice: each backward step splits the value
  tensor's leading axis into contiguous slabs, exchanges one halo plane per
  boundary, and synchronizes. Communication per step is O(level surface),
  so efficiency falls as P approaches the level width — the
  synchronization-bound workload.
* :class:`ParallelPDEPricer` — ADI with transpose-based sweep
  parallelization: tridiagonal lines are independent within each half-step;
  the data transpose between x- and y-sweeps is an all-to-all.

Every pricer produces *numerically identical* values to its sequential
reference engine (asserted in the integration tests) while charging
compute/communication costs to a :class:`~repro.parallel.SimulatedCluster`,
from which the evaluation's T(P)/speedup/efficiency tables are read.
"""

from repro.core.portfolio import PortfolioPricer, PortfolioRun
from repro.engine import (
    ParallelGreeksResult,
    ParallelLatticePricer,
    ParallelLSMPricer,
    ParallelMCGreeks,
    ParallelMCPricer,
    ParallelPDEPricer,
    ParallelRunResult,
    WorkModel,
)

__all__ = [
    "PortfolioPricer",
    "PortfolioRun",
    "ParallelLSMPricer",
    "ParallelGreeksResult",
    "ParallelMCGreeks",
    "ParallelRunResult",
    "WorkModel",
    "ParallelMCPricer",
    "ParallelLatticePricer",
    "ParallelPDEPricer",
]

"""Parallel multidimensional lattice pricer: level-synchronous slab
decomposition of the BEG backward induction.

At level ``t`` the value tensor has ``(t+1)^d`` nodes. Its leading axis is
block-partitioned into (at most) P contiguous slabs; a rank's slab update
(:meth:`BEGLattice.step_rows`) needs exactly one halo plane
(``(t+2)^{d−1}`` values) from the next rank — the corner-stencil offsets
along the sliced axis are only 0 or 1. One halo exchange per level is the
entire communication; the level-synchronous structure is also the
algorithm's weakness: near the root, levels hold fewer rows than ranks, so
extra ranks idle (charged as idle time), and per-level latency is paid ``n``
times. That is why lattice speedup saturates (experiments F3/T3) while MC's
does not — the central comparison of the paper's evaluation.

The decomposition is what the simulated cluster is *charged*, slab by
slab; the values are *computed* with one :meth:`BEGLattice.step` per level
per cache-sized block of contracts, over whole levels. ``step_rows`` is
pinned bit-equal to the matching rows of ``step``, so this is the
slab-by-slab result exactly, at one kernel call per level and block
instead of P.

American exercise adds a per-level intrinsic evaluation on each slab
(charged as extra work) and a max; values remain bit-identical to the
sequential sweep, which the integration tests assert for every P.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.batch.kernels import beg_strip_walk
from repro.engine.names import LATTICE
from repro.engine.pipeline import (
    Estimate,
    ExecutionPlan,
    PipelineContext,
    PipelineEngine,
    PricingJob,
)
from repro.engine.work import WorkModel
from repro.errors import ValidationError
from repro.lattice.beg import BEGLattice
from repro.obs import MetricsRegistry, Tracer
from repro.parallel.faults import FaultPlan, FaultPolicy, RunReport
from repro.parallel.partition import block_partition
from repro.parallel.simcluster import MachineSpec
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["ParallelLatticePricer"]


class ParallelLatticePricer(PipelineEngine):
    """Slab-parallel BEG lattice valuation with simulated timing.

    Inline. Shared settings (``spec``, ``work``, ``record``, ``faults``,
    ``policy``, ``tracer``, ``metrics``) are documented on
    :class:`~repro.engine.pipeline.PipelineEngine`.

    Parameters
    ----------
    steps : lattice time steps ``n``.
    american : apply early exercise at every level.
    tracer : phase spans are ``lattice.leaves`` / ``lattice.level`` /
        ``lattice.halo``.
    """

    name = LATTICE
    batchable = True

    def __init__(
        self,
        steps: int,
        *,
        american: bool = False,
        spec: MachineSpec | None = None,
        work: WorkModel | None = None,
        record: bool = False,
        faults: FaultPlan | None = None,
        policy: FaultPolicy | str | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(spec=spec, work=work, record=record, tracer=tracer,
                         metrics=metrics)
        self.steps = check_positive_int("steps", steps)
        self.american = bool(american)
        self.faults = faults
        self.policy = policy

    def plan(self, job: PricingJob) -> ExecutionPlan:
        check_positive("expiry", job.expiry)
        p = check_positive_int("p", job.p)
        for j, payoff in enumerate(job.payoffs):
            if payoff.dim != job.model.dim:
                raise ValidationError(
                    f"payoff {j} dim {payoff.dim} does not match model dim "
                    f"{job.model.dim}"
                )
            if payoff.is_path_dependent:
                raise ValidationError(
                    f"payoff {j} is path-dependent; the lattice prices "
                    f"terminal payoffs only"
                )
        lattice = BEGLattice(job.model, job.expiry, self.steps)
        return ExecutionPlan(engine=self.name, job=job, p=p,
                             scratch={"lattice": lattice})

    def execute(self, plan: ExecutionPlan,
                ctx: PipelineContext) -> List[float]:
        """Backward induction, then the charge for it; returns the roots.

        The values come from :func:`~repro.batch.kernels.beg_strip_walk`:
        the strip walked in cache-sized contract blocks, one ``step`` call
        per level per block, every contract's root carrying the bits it
        gets priced alone. The simulated cluster is then charged level by
        level, slab by slab, as if all C contracts rode one stacked
        tensor: that loop reads no value. The per-level halo exchange
        charged per slab boundary moves one C-plane message instead of C
        separate ones (latency amortization).
        """
        cluster = ctx.cluster
        tracer = ctx.tracer
        payoffs = plan.job.payoffs
        roots = beg_strip_walk(plan.scratch["lattice"], payoffs,
                               american=self.american)

        contracts = len(payoffs)
        p = plan.p
        d = plan.job.model.dim
        n = self.steps
        node_units = self.work.lattice_node_units(d)
        intr_units = self.work.intrinsic_node_units(d)
        # Leaf evaluation is parallel over slabs of the terminal tensor.
        leaf_parts = block_partition(n + 1, min(p, n + 1))
        plane_leaf = (n + 1) ** (d - 1)
        for r, (lo, hi) in enumerate(leaf_parts):
            cluster.compute(r, (hi - lo) * plane_leaf * intr_units * contracts)
        if tracer:
            tracer.add_span("lattice.leaves", 0.0, cluster.elapsed(),
                            contracts=contracts)

        for t in range(n - 1, -1, -1):
            if tracer:
                level_t0 = cluster.elapsed()
            rows = t + 1
            plane = rows ** (d - 1)
            for r, (lo, hi) in enumerate(block_partition(rows, min(p, rows))):
                work_units = (hi - lo) * plane * node_units * contracts
                if self.american:
                    work_units += (hi - lo) * plane * intr_units * contracts
                cluster.compute(r, work_units)
            # One halo plane of level t+1 per contract moves across each
            # slab boundary, as one message: C× the bytes, 1× the latency.
            halo_bytes = ((t + 2) ** (d - 1)) * 8.0 * contracts
            if tracer:
                halo_t0 = cluster.elapsed()
            cluster.halo_exchange(halo_bytes)
            if tracer:
                tracer.add_span("lattice.halo", halo_t0, cluster.elapsed(),
                                level=t, nbytes=halo_bytes)
                tracer.add_span("lattice.level", level_t0, cluster.elapsed(),
                                level=t, rows=rows)
        return roots

    def reduce(self, plan: ExecutionPlan, state: Any, ctx: PipelineContext,
               fault_report: Optional[RunReport]) -> List[Estimate]:
        # Root values live on rank 0; share them (the paper's codes
        # broadcast the final price so every node can report).
        ctx.cluster.bcast(8.0 * len(state), root=0)
        return [Estimate(price=root, stderr=0.0) for root in state]

    def report(self, plan: ExecutionPlan, estimate: Estimate,
               ctx: PipelineContext,
               fault_report: Optional[RunReport]) -> Dict[str, Any]:
        d = plan.job.model.dim
        n = self.steps
        nodes = sum((t + 1) ** d for t in range(n + 1))
        return {
            "steps": n,
            "dim": d,
            "branching": 2 ** d,
            "nodes": nodes,
            "american": self.american,
            **({"fault_report": fault_report} if fault_report else {}),
        }

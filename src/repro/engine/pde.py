"""Parallel two-asset ADI pricer: transpose-based sweep decomposition.

Within one Peaceman–Rachford step every tridiagonal line is independent of
its neighbors, so:

* the **x-implicit** half-step distributes the ``n_y`` column systems over
  ranks (rank r solves a contiguous block of columns);
* the **y-implicit** half-step distributes the ``n_x`` row systems;
* switching between the two layouts is a **data transpose** — an
  all-to-all in which each rank pair exchanges ``n_x·n_y/P²`` grid values.

Per time step the decomposition therefore pays two all-to-alls; their cost
grows with P (pairwise model: (P−1)(α + b·β)), which gives the PDE engine
its characteristic efficiency roll-off between the embarrassing MC curve
and the latency-bound lattice curve (experiment T7).

The rank blocks are what the simulated cluster is *charged*, block by
block; each half-step is *computed* with one solver call over the whole
plane. Every tridiagonal line is solved independently and elementwise, so
one call yields exactly the bits the per-rank blocks would, side by side;
the integration tests assert the plane is bit-identical to the sequential
:class:`~repro.pde.ADISolver` step for every P.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.engine.names import PDE
from repro.engine.pipeline import (
    Estimate,
    ExecutionPlan,
    PipelineContext,
    PipelineEngine,
    PricingJob,
)
from repro.engine.work import WorkModel
from repro.errors import ValidationError
from repro.obs import MetricsRegistry, Tracer
from repro.parallel.faults import FaultPlan, FaultPolicy, RunReport
from repro.parallel.partition import block_partition
from repro.parallel.simcluster import MachineSpec, SimulatedCluster
from repro.pde.adi2d import ADISolver
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["ParallelPDEPricer"]


class ParallelPDEPricer(PipelineEngine):
    """Transpose-parallel ADI valuation with simulated timing.

    Inline. Shared settings (``spec``, ``work``, ``record``, ``faults``,
    ``policy``, ``tracer``, ``metrics``) are documented on
    :class:`~repro.engine.pipeline.PipelineEngine`.

    Parameters
    ----------
    n_space : spatial intervals per axis (even).
    n_time : time steps.
    american : project onto the obstacle after each full step.
    tracer : phase spans are per-step ``pde.step`` with nested
        ``pde.transpose`` exchanges.
    """

    name = PDE

    def __init__(
        self,
        *,
        n_space: int = 200,
        n_time: int = 100,
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
        self.n_space = check_positive_int("n_space", n_space)
        self.n_time = check_positive_int("n_time", n_time)
        self.american = bool(american)
        self.faults = faults
        self.policy = policy

    def plan(self, job: PricingJob) -> ExecutionPlan:
        check_positive("expiry", job.expiry)
        p = check_positive_int("p", job.p)
        if job.model.dim != 2:
            raise ValidationError(
                f"PDE pricer requires a 2-asset model, got dim={job.model.dim}"
            )
        solver = ADISolver(job.model, job.expiry, n_space=self.n_space,
                           n_time=self.n_time)
        sx, sy = solver.grid_x.s, solver.grid_y.s
        mesh = np.stack(np.meshgrid(sx, sy, indexing="ij"),
                        axis=-1).reshape(-1, 2)
        values = job.payoff.terminal(mesh).reshape(sx.size, sy.size)
        obstacle = values.copy() if self.american else None
        return ExecutionPlan(engine=self.name, job=job, p=p,
                             scratch={"solver": solver, "values": values,
                                      "obstacle": obstacle})

    # -- execute helpers ------------------------------------------------

    def _transpose(self, ctx: PipelineContext, nbytes: float) -> None:
        """All-to-all layout switch, traced as a ``pde.transpose`` span."""
        cluster = ctx.cluster
        t0 = cluster.elapsed()
        cluster.alltoall(nbytes)
        if ctx.tracer:
            ctx.tracer.add_span("pde.transpose", t0, cluster.elapsed())

    def _parallel_step(
        self, solver: ADISolver, v: np.ndarray, p: int, ctx: PipelineContext,
        obstacle: Optional[np.ndarray],
    ) -> np.ndarray:
        """One ADI step: each half-step is one solver call over the whole
        plane, charged rank block by rank block."""
        cluster: SimulatedCluster = ctx.cluster
        nx, ny = v.shape
        w = self.work
        # Phase 0 (row layout): explicit_y + mixed term on row blocks.
        mixed = 0.5 * solver.dt * solver.mixed_term(v)
        rhs1 = solver.explicit_y(v) + mixed
        row_parts = block_partition(nx, min(p, nx))
        for r, (lo, hi) in enumerate(row_parts):
            cluster.compute(r, (hi - lo) * ny * (w.fd_explicit_point + w.fd_mixed_point))

        # Transpose rows → columns.
        self._transpose(ctx, nx * ny * 8.0 / (p * p))

        # Phase 1 (column layout): x-implicit solves on column blocks.
        col_parts = block_partition(ny, min(p, ny))
        v_star = solver.implicit_x(rhs1)
        for r, (lo, hi) in enumerate(col_parts):
            cluster.compute(r, (hi - lo) * nx * w.fd_point)
        # explicit_x is also column-independent; stay in column layout.
        rhs2 = solver.explicit_x(v_star) + mixed
        for r, (lo, hi) in enumerate(col_parts):
            cluster.compute(r, (hi - lo) * nx * w.fd_explicit_point)

        # Transpose columns → rows.
        self._transpose(ctx, nx * ny * 8.0 / (p * p))

        # Phase 2 (row layout): y-implicit solves on row blocks.
        v_new = solver.implicit_y(rhs2)
        for r, (lo, hi) in enumerate(row_parts):
            cluster.compute(r, (hi - lo) * ny * w.fd_point)
        if obstacle is not None:
            np.maximum(v_new, obstacle, out=v_new)
            for r, (lo, hi) in enumerate(row_parts):
                cluster.compute(r, (hi - lo) * ny * 1.0)
        return v_new

    def execute(self, plan: ExecutionPlan, ctx: PipelineContext) -> np.ndarray:
        solver: ADISolver = plan.scratch["solver"]
        values: np.ndarray = plan.scratch["values"]
        obstacle: Optional[np.ndarray] = plan.scratch["obstacle"]
        for step in range(self.n_time):
            step_t0 = ctx.cluster.elapsed()
            values = self._parallel_step(solver, values, plan.p, ctx, obstacle)
            if ctx.tracer:
                ctx.tracer.add_span("pde.step", step_t0, ctx.cluster.elapsed(),
                                    step=step)
        return values

    def reduce(self, plan: ExecutionPlan, state: Any, ctx: PipelineContext,
               fault_report: Optional[RunReport]) -> List[Estimate]:
        ctx.cluster.bcast(8.0, root=0)
        solver: ADISolver = plan.scratch["solver"]
        i, j = solver.grid_x.spot_index, solver.grid_y.spot_index
        return [Estimate(price=float(state[i, j]), stderr=0.0)]

    def report(self, plan: ExecutionPlan, estimate: Estimate,
               ctx: PipelineContext,
               fault_report: Optional[RunReport]) -> Dict[str, Any]:
        return {
            "n_space": self.n_space,
            "n_time": self.n_time,
            "american": self.american,
            **({"fault_report": fault_report} if fault_report else {}),
        }

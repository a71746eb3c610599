"""Result object shared by all parallel pipeline engines.

Lives in its own module at the bottom of the engine stack so the pipeline,
the runner and every engine family can share one class without import
cycles; :mod:`repro.engine` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ParallelRunResult"]


@dataclass(frozen=True)
class ParallelRunResult:
    """One parallel pricing run on ``p`` ranks.

    Attributes
    ----------
    price, stderr : the estimate (stderr 0.0 for deterministic engines).
    p : rank count.
    sim_time : simulated parallel execution time T(P) in seconds — the
        quantity the paper's tables report.
    wall_time : actual wall-clock seconds of this run (backend-dependent;
        meaningless as a speedup measure on a single-core host).
    compute_time, comm_time, idle_time : simulated per-rank maxima, the
        overhead decomposition of ``sim_time``.
    messages, bytes_moved : simulated communication volume.
    engine : canonical engine name — one of the
        :data:`repro.engine.names.PARALLEL_ENGINES` constants exported by
        the :class:`~repro.engine.registry.EngineRegistry` (``"mc"``,
        ``"lattice"``, ``"pde"``, ``"lsm"``, ``"mc-greeks"``).
    meta : engine-specific diagnostics.
    """

    price: float
    stderr: float
    p: int
    sim_time: float
    wall_time: float
    compute_time: float
    comm_time: float
    idle_time: float
    messages: int
    bytes_moved: float
    engine: str
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def comm_fraction(self) -> float:
        """Share of simulated time spent communicating (0 when sim_time=0)."""
        return self.comm_time / self.sim_time if self.sim_time > 0 else 0.0

    def __str__(self) -> str:
        return (
            f"{self.price:.6f} [{self.engine}, P={self.p}] "
            f"T_sim={self.sim_time:.4g}s (comm {100 * self.comm_fraction:.1f}%)"
        )

"""Standard parameter sets for the reconstructed evaluation (DESIGN.md).

Centralizing the sweeps keeps every benchmark and EXPERIMENTS.md row
pointing at the same numbers.
"""

from __future__ import annotations

from repro.engine.names import GREEKS, LATTICE, LSM, MC, PDE
from repro.errors import ValidationError
from repro.parallel.simcluster import MachineSpec
from repro.workloads.generators import (
    Workload,
    basket_workload,
    rainbow_workload,
    spread_workload,
)

__all__ = [
    "DIMENSION_SWEEP",
    "PROCESSOR_SWEEP",
    "PATH_COUNTS",
    "LATTICE_STEP_SWEEP",
    "default_machine_specs",
    "scaling_workload",
]

#: Basket dimensions for the MC dimension sweeps (T2, F1, F6).
DIMENSION_SWEEP = (1, 2, 4, 8)

#: Processor counts for every strong-scaling sweep.
PROCESSOR_SWEEP = (1, 2, 4, 8, 16, 32)

#: Path counts for the efficiency-vs-size experiment (F2).
PATH_COUNTS = (10_000, 100_000, 1_000_000)

#: Lattice step counts for the lattice scaling experiment (F3).
LATTICE_STEP_SWEEP = (256, 1024, 4096)


def default_machine_specs() -> dict[str, MachineSpec]:
    """Named machine variants used by the granularity ablation (F7).

    * ``baseline`` — 2002-era cluster (50 µs latency, 100 MB/s links).
    * ``fast-network`` — 10× lower latency, 10× higher bandwidth (SMP-like).
    * ``slow-network`` — 10× worse on both (Ethernet-of-the-era).
    """
    return {
        "baseline": MachineSpec(flop_time=1e-8, alpha=50e-6, beta=1e-8),
        "fast-network": MachineSpec(flop_time=1e-8, alpha=5e-6, beta=1e-9),
        "slow-network": MachineSpec(flop_time=1e-8, alpha=500e-6, beta=1e-7),
    }


def scaling_workload(engine: str) -> Workload:
    """The canonical demo contract for one parallel engine family.

    Keyed by the canonical :mod:`repro.engine.names` constants; used by
    ``repro scaling`` / ``repro trace`` / ``repro obs flame`` so every CLI
    flow and benchmark exercises the same contract per family:

    * MC / Greeks — the 4-asset basket call (the paper's headline sweep);
    * lattice — the 2-asset max-call rainbow (BEG's native shape);
    * PDE — the spread call (the ADI solver's 2-asset case);
    * LSM — an American 2-asset basket put (early exercise matters).
    """
    if engine in (MC, GREEKS):
        return basket_workload(4)
    if engine == LATTICE:
        return rainbow_workload()
    if engine == PDE:
        return spread_workload()
    if engine == LSM:
        from repro.payoffs.basket import BasketPut

        base = basket_workload(2)
        return Workload("american-basket-put", base.model,
                        BasketPut([0.5, 0.5], 100.0), base.expiry)
    raise ValidationError(
        f"no scaling workload for engine {engine!r}"
    )

"""Parallel-execution substrate.

Three layers:

* :mod:`~repro.parallel.partition` — deterministic work partitioners
  (block, cyclic, block-cyclic) shared by every parallel pricer.
* :mod:`~repro.parallel.backends` — *real* execution backends (serial,
  threads, fork processes) that run rank tasks and measure wall time.
* :mod:`~repro.parallel.simcluster` — the **simulated message-passing
  multiprocessor**: per-rank virtual clocks, an α–β (latency–bandwidth)
  communication model, tree/linear collectives, and barrier costs. This is
  the machine on which the paper-style ``T(P)``/speedup/efficiency curves
  are generated deterministically (this repo substitutes it for the
  paper's 2002 hardware; see DESIGN.md).
* :mod:`~repro.parallel.faults` — deterministic, seeded fault injection
  (crashes, stragglers, dropped/corrupted results) plus the resilience
  plumbing: failure policies (fail-fast / retry-with-backoff / degrade),
  a resilient map over any backend, and byte-reproducible run reports.
* :mod:`~repro.parallel.sched` — pluggable execute-stage schedulers
  (static block chunks, LPT over cost estimates, seeded work stealing)
  deciding task→worker placement on the real backends, plus a
  virtual-time schedule simulator for the simulated machine. Placement
  only: results reassemble by task index, so prices never move.
"""

from repro.parallel.partition import (
    block_partition,
    block_sizes,
    cyclic_indices,
    block_cyclic_indices,
    owner_of,
)
from repro.parallel.backends import (
    ExecutionBackend,
    make_backend,
    SerialBackend,
    ThreadBackend,
    ProcessBackend,
    suggest_chunksize,
    ChunkAutotuner,
    TaskHandle,
)
from repro.parallel.sched import (
    SCHEDULER_NAMES,
    Scheduler,
    StaticChunkScheduler,
    LPTScheduler,
    WorkStealingScheduler,
    SchedStats,
    StealEvent,
    VirtualSchedule,
    simulate_schedule,
    resolve_scheduler,
)
from repro.parallel.shm import SharedArrayRef, ShmSession, ShmWorker
from repro.parallel.simcluster import (
    MachineSpec,
    SimulatedCluster,
    combine_on_schedule,
)
from repro.parallel.faults import (
    FaultKind,
    FaultEvent,
    FaultPlan,
    FaultPolicy,
    RankAttempt,
    RunReport,
    resilient_map,
    plan_report,
    charge_report,
)
from repro.parallel.collectives import (
    tree_reduce_time,
    linear_reduce_time,
    bcast_time,
    allreduce_time,
    alltoall_time,
)

__all__ = [
    "block_partition",
    "block_sizes",
    "cyclic_indices",
    "block_cyclic_indices",
    "owner_of",
    "ExecutionBackend",
    "make_backend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "suggest_chunksize",
    "ChunkAutotuner",
    "TaskHandle",
    "SCHEDULER_NAMES",
    "Scheduler",
    "StaticChunkScheduler",
    "LPTScheduler",
    "WorkStealingScheduler",
    "SchedStats",
    "StealEvent",
    "VirtualSchedule",
    "simulate_schedule",
    "resolve_scheduler",
    "SharedArrayRef",
    "ShmSession",
    "ShmWorker",
    "MachineSpec",
    "SimulatedCluster",
    "combine_on_schedule",
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "FaultPolicy",
    "RankAttempt",
    "RunReport",
    "resilient_map",
    "plan_report",
    "charge_report",
    "tree_reduce_time",
    "linear_reduce_time",
    "bcast_time",
    "allreduce_time",
    "alltoall_time",
]

"""The unified engine pipeline: Plan → Partition → Execute → Reduce → Report.

Every parallel pricing family is one :class:`PipelineEngine` with explicit
stages, driven by the shared runner (:func:`run_engine` for one contract,
:func:`run_strip` for a fused strip — a single contract is a strip of one
and takes the same route), which applies the cross-cutting middleware
(fault injection, tracing, metrics, chunked backend maps, wall-clock
timing) exactly once. The
:class:`EngineRegistry` maps canonical engine names
(:mod:`repro.engine.names`) to capability flags and per-subsystem factory
hooks, so the serving layer, the verification oracle, the workload suites
and the CLI all resolve engines the same way.

The :mod:`repro.core` pricer classes are the public entry points — thin
config adapters over these engines.
"""

from repro.engine import names
from repro.engine.names import PARALLEL_ENGINES, REFERENCE_FAMILIES
from repro.engine.pipeline import (
    Estimate,
    ExecutionPlan,
    PipelineContext,
    PipelineEngine,
    PricingJob,
    RankTask,
)
from repro.engine.registry import (
    EngineCapabilities,
    EngineRegistry,
    EngineSpec,
    default_registry,
)
from repro.engine.result import ParallelRunResult
from repro.engine.runner import run_engine, run_pipeline, run_strip

__all__ = [
    "names",
    "PARALLEL_ENGINES",
    "REFERENCE_FAMILIES",
    "PricingJob",
    "ExecutionPlan",
    "RankTask",
    "Estimate",
    "PipelineContext",
    "PipelineEngine",
    "ParallelRunResult",
    "run_pipeline",
    "run_engine",
    "run_strip",
    "EngineCapabilities",
    "EngineSpec",
    "EngineRegistry",
    "default_registry",
]

"""The unified engine pipeline: Plan → Partition → Execute → Reduce → Report.

Every parallel pricing family is one :class:`PipelineEngine` subclass —
:class:`ParallelMCPricer`, :class:`ParallelLatticePricer`,
:class:`ParallelPDEPricer`, :class:`ParallelLSMPricer`,
:class:`ParallelMCGreeks` — holding the family's settings, its explicit
stages and its ``price``/``sweep`` entry points, driven by the shared
runner (:func:`run_engine` for one contract, :func:`run_strip` for a fused
strip — a single contract is a strip of one and takes the same route),
which applies the cross-cutting middleware (fault injection, tracing,
metrics, chunked backend maps, wall-clock timing) exactly once. The
:class:`EngineRegistry` maps canonical engine names
(:mod:`repro.engine.names`) to each family's class and its serve hook;
what a family can do (``batchable``, ``schedulable``) is an attribute of
that class. :class:`PortfolioPricer` is the contract-level task farm: a
whole book spread over ranks, placed by
:func:`~repro.parallel.sched.simulate_schedule`.
"""

from repro.engine import names
from repro.engine.greeks import ParallelGreeksResult, ParallelMCGreeks
from repro.engine.lattice import ParallelLatticePricer
from repro.engine.lsm import ParallelLSMPricer
from repro.engine.mc import ParallelMCPricer
from repro.engine.names import PARALLEL_ENGINES, REFERENCE_FAMILIES
from repro.engine.pde import ParallelPDEPricer
from repro.engine.portfolio import PortfolioPricer, PortfolioRun
from repro.engine.pipeline import (
    Estimate,
    ExecutionPlan,
    PipelineContext,
    PipelineEngine,
    PricingJob,
    RankTask,
)
from repro.engine.registry import EngineRegistry, EngineSpec, default_registry
from repro.engine.result import ParallelRunResult
from repro.engine.runner import run_engine, run_pipeline, run_strip
from repro.engine.work import WorkModel

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
    "WorkModel",
    "ParallelMCPricer",
    "ParallelLatticePricer",
    "ParallelPDEPricer",
    "ParallelLSMPricer",
    "ParallelGreeksResult",
    "ParallelMCGreeks",
    "PortfolioPricer",
    "PortfolioRun",
    "run_pipeline",
    "run_engine",
    "run_strip",
    "EngineSpec",
    "EngineRegistry",
    "default_registry",
]

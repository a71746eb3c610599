"""The engine capability registry: every pricing family, by canonical name.

One :class:`EngineSpec` per engine family records what the family *is*
(capability flags, dimension ceiling) and how each subsystem obtains an
instance of it — the serving layer a request-configured pricer, the
differential oracle a corpus adapter, the CLI a scaling/trace pricer, the
pipeline tests the family's :class:`~repro.engine.pipeline.PipelineEngine`
subclass — the same class the serve, scaling and trace hooks instantiate.
Consumers resolve engines **by canonical name only**
(:mod:`repro.engine.names`); none of them hard-code family lists or
if/elif dispatch anymore.

Hook callables import their targets lazily (inside the function body), so
this module stays import-light and cycle-free: it can be imported by
``repro.serve``, ``repro.verify`` and the CLI alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.engine.names import (
    ANALYTIC,
    GREEKS,
    LATTICE,
    LSM,
    MC,
    MLMC,
    PDE,
    QMC,
)
from repro.errors import ValidationError

__all__ = [
    "EngineCapabilities",
    "EngineSpec",
    "EngineRegistry",
    "default_registry",
]


@dataclass(frozen=True)
class EngineCapabilities:
    """What an engine family can price, as machine-checkable flags.

    ``max_dim`` is the asset-dimension ceiling (``None`` = unlimited);
    ``degradable`` marks families whose estimator survives rank loss with
    a widened CI (the ``degrade`` fault policy); ``supports_qmc`` marks
    families that accept a quasi-Monte Carlo technique; ``batchable``
    marks families whose pipeline stages price strips of more than one
    payoff (:mod:`repro.batch` groups cache-missed requests by these);
    ``schedulable`` marks families whose rank tasks a non-static
    :class:`~repro.parallel.sched.Scheduler` (LPT / work stealing) may
    re-place across workers.
    """

    stochastic: bool = False
    american: bool = False
    degradable: bool = False
    supports_qmc: bool = False
    batchable: bool = False
    schedulable: bool = False
    max_dim: Optional[int] = None

    def flags(self) -> Tuple[str, ...]:
        """The set flag names, for display."""
        out = []
        if self.stochastic:
            out.append("stochastic")
        if self.american:
            out.append("american")
        if self.degradable:
            out.append("degradable")
        if self.supports_qmc:
            out.append("qmc")
        if self.batchable:
            out.append("batchable")
        if self.schedulable:
            out.append("schedulable")
        return tuple(out)


@dataclass(frozen=True)
class EngineSpec:
    """One engine family: capabilities plus per-subsystem factory hooks.

    Every hook is optional — a family participates only in the subsystems
    it has a hook for:

    ``pipeline()``
        → the family's :class:`~repro.engine.pipeline.PipelineEngine`
        subclass, i.e. its pricer class (the five parallel families).
    ``serve(request)``
        → a pricer configured from a
        :class:`~repro.serve.batching.PricingRequest`.
    ``oracle(case, params)``
        → an :class:`~repro.verify.oracle.EngineCell` for one corpus case
        (the seven reference families).
    ``scaling(args, spec)``
        → ``(workload, pricer, label)`` for the ``repro scaling`` sweep.
    ``trace(args, faults=..., policy=..., tracer=..., backend=...)``
        → ``(workload, pricer)`` for the ``repro trace`` command;
        ``uses_backend`` tells the CLI to construct a real execution
        backend first.
    """

    name: str
    summary: str
    capabilities: EngineCapabilities = field(default_factory=EngineCapabilities)
    pipeline: Optional[Callable[[], Any]] = None
    serve: Optional[Callable[[Any], Any]] = None
    oracle: Optional[Callable[[Any, dict], Any]] = None
    scaling: Optional[Callable[..., Any]] = None
    trace: Optional[Callable[..., Any]] = None
    uses_backend: bool = False


class EngineRegistry:
    """Name → :class:`EngineSpec`, preserving registration order."""

    def __init__(self) -> None:
        self._specs: Dict[str, EngineSpec] = {}

    def register(self, spec: EngineSpec) -> EngineSpec:
        if spec.name in self._specs:
            raise ValidationError(f"engine {spec.name!r} is already registered")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> EngineSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise ValidationError(
                f"unknown engine {name!r}; registered engines: "
                f"{tuple(self._specs)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def specs(self) -> Tuple[EngineSpec, ...]:
        return tuple(self._specs.values())

    def names(self, *, parallel: bool = False, servable: bool = False,
              reference: bool = False, scalable: bool = False,
              traceable: bool = False, batchable: bool = False,
              schedulable: bool = False) -> Tuple[str, ...]:
        """Engine names in registration order, optionally filtered by the
        subsystems the family participates in (flags AND together)."""
        out = []
        for spec in self._specs.values():
            if parallel and spec.pipeline is None:
                continue
            if servable and spec.serve is None:
                continue
            if reference and spec.oracle is None:
                continue
            if scalable and spec.scaling is None:
                continue
            if traceable and spec.trace is None:
                continue
            if batchable and not spec.capabilities.batchable:
                continue
            if schedulable and not spec.capabilities.schedulable:
                continue
            out.append(spec.name)
        return tuple(out)


# ----------------------------------------------------------------------
# Default registry wiring. All imports inside hook bodies — see module
# docstring.
# ----------------------------------------------------------------------

def _oracle_hook(family: str) -> Callable[[Any, dict], Any]:
    def run(case: Any, params: dict) -> Any:
        from repro.verify.oracle import ORACLE_ADAPTERS

        return ORACLE_ADAPTERS[family](case, params)

    run.__name__ = f"oracle_{family}"
    return run


# -- pipeline hooks (the family's one class: settings + stages) --------

def _pipeline_mc() -> Any:
    from repro.engine.mc import ParallelMCPricer

    return ParallelMCPricer


def _pipeline_lattice() -> Any:
    from repro.engine.lattice import ParallelLatticePricer

    return ParallelLatticePricer


def _pipeline_pde() -> Any:
    from repro.engine.pde import ParallelPDEPricer

    return ParallelPDEPricer


def _pipeline_lsm() -> Any:
    from repro.engine.lsm import ParallelLSMPricer

    return ParallelLSMPricer


def _pipeline_greeks() -> Any:
    from repro.engine.greeks import ParallelMCGreeks

    return ParallelMCGreeks


# -- serve hooks (request → configured pricer) -------------------------

def _serve_mc(request: Any) -> Any:
    return _pipeline_mc()(request.n_paths, seed=request.seed,
                          steps=request.steps)


def _serve_lattice(request: Any) -> Any:
    return _pipeline_lattice()(request.steps)


def _serve_pde(request: Any) -> Any:
    n_time = max((request.steps or request.grid // 2), 4)
    return _pipeline_pde()(n_space=request.grid, n_time=n_time)


def _serve_lsm(request: Any) -> Any:
    return _pipeline_lsm()(request.n_paths, request.steps, seed=request.seed)


# -- scaling hooks (CLI args + machine spec → workload, pricer, label) --

def _scaling_mc(args: Any, spec: Any) -> Any:
    from repro.workloads.suites import scaling_workload

    w = scaling_workload(MC)
    pricer = _pipeline_mc()(args.paths, seed=args.seed, spec=spec)
    return w, pricer, f"MC — 4-asset basket, N={args.paths}"


def _scaling_lattice(args: Any, spec: Any) -> Any:
    from repro.workloads.suites import scaling_workload

    w = scaling_workload(LATTICE)
    pricer = _pipeline_lattice()(args.steps, spec=spec)
    return w, pricer, f"BEG lattice — 2-asset max-call, {args.steps} steps"


def _scaling_pde(args: Any, spec: Any) -> Any:
    from repro.workloads.suites import scaling_workload

    w = scaling_workload(PDE)
    pricer = _pipeline_pde()(n_space=args.grid,
                             n_time=max(args.steps // 8, 4), spec=spec)
    return w, pricer, f"ADI PDE — spread call, {args.grid}² grid"


def _scaling_lsm(args: Any, spec: Any) -> Any:
    from repro.workloads.suites import scaling_workload

    w = scaling_workload(LSM)
    dates = max(args.steps // 8, 4)
    pricer = _pipeline_lsm()(args.paths, dates, seed=args.seed, spec=spec)
    return w, pricer, (f"LSM — 2-asset american basket put, "
                       f"N={args.paths}, {dates} dates")


# -- trace hooks (CLI args + middleware → workload, pricer) ------------

def _trace_mc(args: Any, *, faults: Any, policy: Any, tracer: Any,
              backend: Any) -> Any:
    from repro.workloads.suites import scaling_workload

    w = scaling_workload(MC)
    return w, _pipeline_mc()(args.paths, seed=args.seed, backend=backend,
                             record=True, faults=faults, policy=policy,
                             tracer=tracer)


def _trace_lattice(args: Any, *, faults: Any, policy: Any, tracer: Any,
                   backend: Any) -> Any:
    from repro.workloads.suites import scaling_workload

    w = scaling_workload(LATTICE)
    return w, _pipeline_lattice()(args.steps, record=True, faults=faults,
                                  policy=policy, tracer=tracer)


def _trace_pde(args: Any, *, faults: Any, policy: Any, tracer: Any,
               backend: Any) -> Any:
    from repro.workloads.suites import scaling_workload

    w = scaling_workload(PDE)
    return w, _pipeline_pde()(n_space=args.grid,
                              n_time=max(args.steps // 8, 4), record=True,
                              faults=faults, policy=policy, tracer=tracer)


def _trace_lsm(args: Any, *, faults: Any, policy: Any, tracer: Any,
               backend: Any) -> Any:
    from repro.workloads.suites import scaling_workload

    w = scaling_workload(LSM)
    return w, _pipeline_lsm()(args.paths, args.steps, seed=args.seed,
                              record=True, faults=faults, policy=policy,
                              tracer=tracer)


_DEFAULT: Optional[EngineRegistry] = None


def default_registry() -> EngineRegistry:
    """The process-wide registry with every built-in family registered.

    Registration order is part of the public contract: it fixes the order
    of :data:`~repro.verify.contracts.ENGINE_FAMILIES` (the seven
    reference families first, matching the historical tuple) and of
    :data:`~repro.serve.batching.SERVE_ENGINES`.
    """
    global _DEFAULT
    if _DEFAULT is not None:
        return _DEFAULT
    reg = EngineRegistry()
    reg.register(EngineSpec(
        name=ANALYTIC,
        summary="closed forms (BS, Margrabe, Kirk, Stulz, geometric exotics)",
        oracle=_oracle_hook(ANALYTIC),
    ))
    reg.register(EngineSpec(
        name=MC,
        summary="path-partitioned Monte Carlo with tree reduction",
        capabilities=EngineCapabilities(stochastic=True, degradable=True,
                                        supports_qmc=True, batchable=True,
                                        schedulable=True),
        pipeline=_pipeline_mc,
        serve=_serve_mc,
        oracle=_oracle_hook(MC),
        scaling=_scaling_mc,
        trace=_trace_mc,
        uses_backend=True,
    ))
    reg.register(EngineSpec(
        name=QMC,
        summary="randomized Sobol quasi-Monte Carlo (replicated shifts)",
        capabilities=EngineCapabilities(stochastic=True, supports_qmc=True,
                                        batchable=True),
        oracle=_oracle_hook(QMC),
    ))
    reg.register(EngineSpec(
        name=MLMC,
        summary="multilevel Monte Carlo over time-step hierarchies",
        capabilities=EngineCapabilities(stochastic=True),
        oracle=_oracle_hook(MLMC),
    ))
    reg.register(EngineSpec(
        name=LATTICE,
        summary="level-synchronous BEG lattice with halo exchanges",
        capabilities=EngineCapabilities(american=True, batchable=True,
                                        max_dim=4),
        pipeline=_pipeline_lattice,
        serve=_serve_lattice,
        oracle=_oracle_hook(LATTICE),
        scaling=_scaling_lattice,
        trace=_trace_lattice,
    ))
    reg.register(EngineSpec(
        name=PDE,
        summary="transpose-parallel ADI finite differences (2 assets)",
        capabilities=EngineCapabilities(american=True, max_dim=2),
        pipeline=_pipeline_pde,
        serve=_serve_pde,
        oracle=_oracle_hook(PDE),
        scaling=_scaling_pde,
        trace=_trace_pde,
    ))
    reg.register(EngineSpec(
        name=LSM,
        summary="distributed-regression Longstaff–Schwartz American MC",
        capabilities=EngineCapabilities(stochastic=True, american=True),
        pipeline=_pipeline_lsm,
        serve=_serve_lsm,
        oracle=_oracle_hook(LSM),
        scaling=_scaling_lsm,
        trace=_trace_lsm,
    ))
    reg.register(EngineSpec(
        name=GREEKS,
        summary="CRN bump-and-revalue Greeks over the MC decomposition",
        capabilities=EngineCapabilities(stochastic=True, schedulable=True),
        pipeline=_pipeline_greeks,
    ))
    _DEFAULT = reg
    return reg

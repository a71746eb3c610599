"""The engine registry: every pricing family, by canonical name.

One :class:`EngineSpec` per family holds only what no other module owns:
a one-line summary, the family's
:class:`~repro.engine.pipeline.PipelineEngine` subclass (``pipeline``) and
how a request configures an instance of it (``serve``). Every other fact
has one home of its own: ``batchable`` and ``schedulable`` are attributes
of the engine class (the runner reads them there), admission is
:func:`~repro.engine.contract.check_contract`, the corpus adapters are
:data:`repro.verify.oracle.ORACLE_ADAPTERS`, and the ``scaling``/``trace``
pricers are built in :mod:`repro.cli`. Consumers resolve engines **by
canonical name only** (:mod:`repro.engine.names`).

Hook callables import their targets lazily (inside the function body), so
this module stays import-light and cycle-free: it can be imported by
``repro.serve``, ``repro.batch`` and the CLI alike.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "EngineSpec",
    "EngineRegistry",
    "default_registry",
]


@dataclass(frozen=True)
class EngineSpec:
    """One engine family: a summary plus two optional hooks.

    ``pipeline()``
        → the family's :class:`~repro.engine.pipeline.PipelineEngine`
        subclass, i.e. its pricer class (the five parallel families).
    ``serve(request)``
        → a pricer configured from a
        :class:`~repro.serve.batching.PricingRequest`.

    A family with neither hook is a reference family: the differential
    oracle prices it, nothing else does.
    """

    name: str
    summary: str
    pipeline: Optional[Callable[[], Any]] = None
    serve: Optional[Callable[[Any], Any]] = None


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

    def names(self, *, parallel: bool = False,
              servable: bool = False) -> Tuple[str, ...]:
        """Engine names in registration order, optionally only those with
        a ``pipeline`` and/or a ``serve`` hook (flags AND together)."""
        out = []
        for spec in self._specs.values():
            if parallel and spec.pipeline is None:
                continue
            if servable and spec.serve is None:
                continue
            out.append(spec.name)
        return tuple(out)


# ----------------------------------------------------------------------
# Default registry wiring. All imports inside hook bodies — see module
# docstring.
# ----------------------------------------------------------------------

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


_DEFAULT: Optional[EngineRegistry] = None


def default_registry() -> EngineRegistry:
    """The process-wide registry with every built-in family registered.

    Registration order is part of the public contract: it fixes the order
    of :data:`~repro.serve.batching.SERVE_ENGINES` and of the
    ``repro engines`` table, and matches
    :data:`~repro.engine.names.REFERENCE_FAMILIES` on the seven reference
    families.
    """
    global _DEFAULT
    if _DEFAULT is not None:
        return _DEFAULT
    reg = EngineRegistry()
    reg.register(EngineSpec(
        name=ANALYTIC,
        summary="closed forms (BS, Margrabe, Kirk, Stulz, geometric exotics)",
    ))
    reg.register(EngineSpec(
        name=MC,
        summary="path-partitioned Monte Carlo with tree reduction",
        pipeline=_pipeline_mc,
        serve=_serve_mc,
    ))
    reg.register(EngineSpec(
        name=QMC,
        summary="randomized Sobol quasi-Monte Carlo (replicated shifts)",
    ))
    reg.register(EngineSpec(
        name=MLMC,
        summary="multilevel Monte Carlo over time-step hierarchies",
    ))
    reg.register(EngineSpec(
        name=LATTICE,
        summary="level-synchronous BEG lattice with halo exchanges",
        pipeline=_pipeline_lattice,
        serve=_serve_lattice,
    ))
    reg.register(EngineSpec(
        name=PDE,
        summary="transpose-parallel ADI finite differences (2 assets)",
        pipeline=_pipeline_pde,
        serve=_serve_pde,
    ))
    reg.register(EngineSpec(
        name=LSM,
        summary="distributed-regression Longstaff–Schwartz American MC",
        pipeline=_pipeline_lsm,
        serve=_serve_lsm,
    ))
    reg.register(EngineSpec(
        name=GREEKS,
        summary="CRN bump-and-revalue Greeks over the MC decomposition",
        pipeline=_pipeline_greeks,
    ))
    _DEFAULT = reg
    return reg

"""Requests: the unit of work the pricing service executes.

A :class:`PricingRequest` names one contract (a
:class:`~repro.workloads.generators.Workload`) plus the engine family and
settings to price it with — the request analogue of the verification
corpus's :class:`~repro.verify.contracts.VerifyCase`. Requests are frozen,
picklable (they cross the process-pool boundary) and deterministic: two
requests with equal configs price to bitwise-equal quotes, which is what
makes them cacheable; :func:`request_key` is that cache key.

Grouping lives elsewhere: ``PricingService.price_many`` cuts its input
into ``max_batch``-sized slices, and :func:`~repro.batch.plan.plan_batches`
groups a slice's cache misses into fusable strips.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.names import LATTICE, LSM, MC, PDE
from repro.engine.registry import default_registry
from repro.errors import ValidationError
from repro.lattice.beg import check_node_limit
from repro.serve.cache import stable_key
from repro.utils.validation import check_positive_int
from repro.verify.contracts import describe_workload
from repro.workloads.generators import Workload

__all__ = ["SERVE_ENGINES", "PricingRequest", "request_key"]

#: Engine families the serving layer can route a request to — every
#: registry entry with a serve hook (the :mod:`repro.engine` pipeline
#: engines for MC, the BEG lattice, the ADI PDE and LSM, in that order).
SERVE_ENGINES = default_registry().names(servable=True)


@dataclass(frozen=True)
class PricingRequest:
    """One priceable unit of the request stream.

    Construction raises :class:`ValidationError` for a request its engine
    could never price: a PDE model that is not 2-asset, a path-dependent
    payoff on the lattice or PDE engine, a lattice over the BEG node limit.

    Attributes
    ----------
    workload : the contract (market model, payoff, expiry).
    engine : which parallel pricer family executes it (see
        :data:`SERVE_ENGINES`).
    n_paths : MC/LSM path budget (ignored by lattice/PDE).
    steps : monitoring / exercise / time steps; required for the lattice
        and LSM engines.
    seed : master RNG seed (MC/LSM; the lattice and PDE engines are
        seedless).
    p : simulated rank count handed to the parallel pricer.
    grid : PDE spatial resolution per axis (PDE only).
    name : display label; **never** part of the cache key.
    """

    workload: Workload
    engine: str = MC
    n_paths: int = 20_000
    steps: int | None = None
    seed: int = 0
    p: int = 1
    grid: int = 64
    name: str = ""

    def __post_init__(self) -> None:
        if self.engine not in SERVE_ENGINES:
            raise ValidationError(
                f"engine must be one of {SERVE_ENGINES}, got {self.engine!r}"
            )
        check_positive_int("n_paths", self.n_paths)
        check_positive_int("p", self.p)
        check_positive_int("grid", self.grid)
        if self.steps is not None:
            check_positive_int("steps", self.steps)
        if self.engine in (LATTICE, LSM) and self.steps is None:
            raise ValidationError(
                f"the {self.engine} engine needs steps=<backward steps>"
            )
        if self.engine in (LATTICE, PDE):
            payoff, dim = self.workload.payoff, self.workload.model.dim
            if payoff.is_path_dependent:
                raise ValidationError(
                    f"the {self.engine} engine prices terminal payoffs only; "
                    f"{type(payoff).__name__} is path-dependent"
                )
            if self.engine == PDE and dim != 2:
                raise ValidationError(
                    f"the pde engine prices 2-asset models, got dim={dim}"
                )
            if self.engine == LATTICE:
                check_node_limit(self.steps, dim)

    def settings(self) -> dict:
        """The engine-relevant settings — the cache key's second half.

        Only fields the engine actually reads are included, so changing
        e.g. the seed of a (seedless) lattice request cannot split the
        cache entry.
        """
        if self.engine == MC:
            return {"n_paths": self.n_paths, "steps": self.steps,
                    "seed": self.seed, "p": self.p}
        if self.engine == LATTICE:
            return {"steps": self.steps, "p": self.p}
        if self.engine == PDE:
            return {"grid": self.grid, "steps": self.steps, "p": self.p}
        return {"n_paths": self.n_paths, "steps": self.steps,
                "seed": self.seed, "p": self.p}

    @property
    def label(self) -> str:
        return self.name or self.workload.name


def request_key(request: PricingRequest) -> str:
    """Canonical SHA-256 cache key of one request.

    Covers exactly what determines the price — contract description,
    engine family, engine settings — and nothing presentational, so
    equivalent requests collide (by design) and any numerical change
    splits the key.
    """
    return stable_key({
        "contract": describe_workload(request.workload),
        "engine": request.engine,
        "settings": request.settings(),
    })

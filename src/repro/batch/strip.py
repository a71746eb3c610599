"""The columnar contract strip: one model, one engine config, many payoffs.

A :class:`ContractStrip` keeps the member requests themselves (so the
round trip back to single requests is exact) and exposes the
structure-of-arrays view the fused kernels consume: the shared model /
expiry / rank count on one side, the payoff column on the other.

Grouping identity is :func:`batch_key`: everything a fused kernel must
hold fixed across the strip (market model, expiry, engine family, engine
settings **including the seed**, path dependence) and nothing it
vectorizes over (the payoff). Two requests share a strip iff their batch
keys are equal; each member keeps its own
:func:`~repro.serve.batching.request_key` untouched, so batching can
never change what the price cache stores a quote under.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Tuple

from repro.errors import ValidationError
from repro.serve.batching import PricingRequest
from repro.serve.cache import stable_key
from repro.verify.contracts import describe_model

__all__ = ["ContractStrip", "batch_key"]


def batch_key(request: PricingRequest) -> str:
    """Canonical SHA-256 grouping key: the request minus its payoff.

    Covers the market model, expiry, engine family, the engine settings
    dict (which includes the seed for seeded families — strip members
    must share one master stream) and the payoff's path dependence (it
    fixes the shared draw shape). Deliberately excludes the payoff's
    parameters and every display label: those are the strip axis.
    """
    w = request.workload
    return stable_key({
        "model": describe_model(w.model),
        "expiry": w.expiry,
        "engine": request.engine,
        "settings": request.settings(),
        "path_dependent": bool(w.payoff.is_path_dependent),
    })


@dataclass(frozen=True)
class ContractStrip:
    """A homogeneous, ordered group of pricing requests.

    Construct with :meth:`from_requests` (it validates homogeneity);
    the dataclass fields are the member tuple plus the batch key they
    share. Frozen and picklable: a strip is one backend task.
    """

    requests: Tuple[PricingRequest, ...]
    key: str

    @classmethod
    def from_requests(cls, requests: Iterable[PricingRequest]) -> "ContractStrip":
        members = tuple(requests)
        if not members:
            raise ValidationError("a contract strip needs at least one request")
        keys = {batch_key(r) for r in members}
        if len(keys) > 1:
            raise ValidationError(
                "strip members must share one batch key (same model, expiry, "
                f"engine and settings); got {len(keys)} distinct keys"
            )
        return cls(requests=members, key=keys.pop())

    # -- shared (scalar) side ------------------------------------------

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def engine(self) -> str:
        return self.requests[0].engine

    @property
    def model(self) -> Any:
        return self.requests[0].workload.model

    @property
    def expiry(self) -> float:
        return self.requests[0].workload.expiry

    @property
    def p(self) -> int:
        return self.requests[0].p

    def exemplar_request(self) -> PricingRequest:
        """The first member — carries the shared engine settings."""
        return self.requests[0]

    # -- columnar (per-contract) side ----------------------------------

    @property
    def payoffs(self) -> Tuple[Any, ...]:
        return tuple(r.workload.payoff for r in self.requests)

    def to_requests(self) -> List[PricingRequest]:
        """The exact member requests back, in strip order (round trip)."""
        return list(self.requests)

"""Batch planning: cache-missed requests → strips + leftover singles.

:func:`plan_batches` is the grouping stage between the pricing service's
cache dedup and its one ``backend.map``: requests whose engine family is
*batchable* (per its engine class's flag) are grouped by
:func:`~repro.batch.strip.batch_key`, groups that reach ``min_strip``
members become :class:`~repro.batch.strip.ContractStrip`\\ s, and
everything else — non-batchable families, undersized groups — stays a
single request. Ordering is deterministic: strips appear in first-seen
key order with members in submission order, then singles (non-batchable
in submission order, undersized groups after them in first-seen order),
so the plan (and therefore the map's task list) is a pure function of the
request sequence.

:func:`task_cost` is the one place a plan task's kernel work is estimated
(in :class:`~repro.engine.work.WorkModel` units — the units the engines
charge their simulated clocks in); the pricing service hands it to the
LPT rule so a heterogeneous plan reaches a pool costliest-first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Dict, Iterable, List, Tuple

from repro.batch.strip import ContractStrip, batch_key
from repro.engine.names import LATTICE, LSM, PDE
from repro.engine.registry import default_registry
from repro.engine.work import WorkModel
from repro.errors import ValidationError
from repro.serve.batching import _FRAGMENTS, PricingRequest, _market_key
from repro.utils.validation import check_positive_int
from repro.verify.contracts import describe_model

__all__ = ["BatchPlan", "plan_batches", "task_cost"]


@dataclass(frozen=True)
class BatchPlan:
    """The grouping decision for one batch of cache misses."""

    strips: Tuple[ContractStrip, ...]
    singles: Tuple[PricingRequest, ...]

    @property
    def fused_contracts(self) -> int:
        """How many requests ride in strips (the amortized share)."""
        return sum(len(s) for s in self.strips)

    def tasks(self) -> List[object]:
        """The backend-map task list: strips first, then singles."""
        return list(self.strips) + list(self.singles)


@cache
def _batchable() -> frozenset[str]:
    """The servable families whose engine class is ``batchable``, read
    from the classes on first use (importing them at module level would
    cycle back through :mod:`repro.batch`)."""
    registry = default_registry()
    return frozenset(name for name in registry.names(servable=True)
                     if registry.get(name).pipeline().batchable)


def plan_batches(requests: Iterable[PricingRequest], *,
                 min_strip: int = 2) -> BatchPlan:
    """Group a request sequence into fused strips and leftover singles.

    Groups smaller than ``min_strip`` have too little sharing to amortize
    and stay on the single path — the bitwise-identical fallback for
    everything a fused kernel does not cover. :func:`batch_key` runs once
    per distinct (market *value*, expiry, engine, settings, path
    dependence) — equal-valued fresh models share one call — and not at
    all for fewer than ``min_strip`` requests.
    """
    check_positive_int("min_strip", min_strip)
    requests = list(requests)
    batchable = _batchable() if len(requests) >= min_strip else ()
    groups: Dict[str, List[PricingRequest]] = {}  # first-seen key order
    singles: List[PricingRequest] = []
    key_of: Dict[tuple, str] = {}  # ``requests`` keeps the models' ids alive
    market_of: Dict[int, str] = {}
    for request in requests:
        if not isinstance(request, PricingRequest):
            raise ValidationError(
                f"expected PricingRequest items, got {type(request).__name__}"
            )
        if request.engine not in batchable:
            singles.append(request)
            continue
        w = request.workload
        if id(w.model) not in market_of:
            market_of[id(w.model)] = _FRAGMENTS.text(_market_key,
                                                     describe_model, w.model)
        shared = (market_of[id(w.model)], w.expiry, request.engine,
                  tuple(request.settings().items()),
                  w.payoff.is_path_dependent)
        if shared not in key_of:
            key_of[shared] = batch_key(request)
        groups.setdefault(key_of[shared], []).append(request)

    strips: List[ContractStrip] = []
    for key, members in groups.items():
        if len(members) >= min_strip:
            # Grouped by this very key: nothing left for from_requests
            # to validate, and re-deriving it would hash every member again.
            strips.append(ContractStrip(requests=tuple(members), key=key))
        else:
            singles.extend(members)
    return BatchPlan(strips=tuple(strips), singles=tuple(singles))


_WORK = WorkModel()


def task_cost(task: ContractStrip | PricingRequest) -> float:
    """Estimated kernel work of one plan task, in ``WorkModel`` units.

    ``task`` is a :class:`ContractStrip` or a single request (a strip of
    one). The estimates mirror what the engines charge their simulated
    clocks — a fused MC strip draws and transforms its paths once and
    pays only the payoff term per extra contract; a lattice strip updates
    every node once per contract — so they order a mixed plan the way its
    real task times do. Only the *order* is ever used (placement, never
    arithmetic), which is all an estimate this coarse is good for.
    """
    if isinstance(task, ContractStrip):
        request, contracts = task.requests[0], len(task)
    else:
        request, contracts = task, 1
    dim = request.workload.model.dim
    if request.engine == LATTICE:
        nodes = sum((t + 1) ** dim for t in range(request.steps))
        return nodes * _WORK.lattice_node_units(dim) * contracts
    if request.engine == PDE:
        # The serve hook's default time grid: grid // 2 steps.
        n_time = request.steps or request.grid // 2
        return n_time * _WORK.adi_step_units(request.grid, request.grid)
    per_path = _WORK.mc_path_units(dim, request.steps) + (contracts - 1) * (
        dim * _WORK.payoff_per_asset + _WORK.payoff_base)
    if request.engine == LSM:
        per_path += request.steps * _WORK.regression_per_path
    return request.n_paths * per_path

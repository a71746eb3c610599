"""The one list of what an engine family refuses to price.

A :class:`~repro.serve.batching.PricingRequest` runs :func:`check_contract`
when it is built, and every pipeline engine's ``plan`` and the sequential
MC and LSM references run it again, so a request that constructs is not
refused later and door and engine refuse with one message. A method's own
numerics (a QMC replicate count, a strip's homogeneity, the reference
solvers' guards) keep their checks.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.engine.names import GREEKS, LATTICE, LSM, MC, PDE
from repro.errors import StabilityError, ValidationError
from repro.lattice.beg import check_beg_probabilities, check_node_limit
from repro.utils.validation import check_positive

__all__ = ["check_contract"]


def check_contract(engine: str, model: Any, payoffs: Sequence[Any],
                   expiry: float, *, p: int, n_paths: int | None,
                   steps: int | None, n_space: int | None) -> None:
    """Raise :class:`ValidationError` unless ``engine`` can price every
    payoff on ``model`` to ``expiry``. In order:

    1. ``expiry`` is finite and positive;
    2. the lattice and LSM engines have ``steps``;
    3. the MC, LSM and Greeks engines have at least 2 paths (one sample
       has no standard error) and no more ranks ``p`` than paths;
    4. every payoff's ``dim`` is the model's;
    5. the lattice, PDE and LSM engines price terminal payoffs only, and
       a path-dependent payoff on MC or Greeks needs ``steps``;
    6. the PDE engine prices 2-asset models on an even ``n_space`` ≥ 4
       (the spot sits on the middle node);
    7. a lattice stays inside the BEG node limit, with branch
       probabilities in [0, 1] at ``dt = expiry / steps``.

    The counts are positive integers already, or ``None`` where the
    caller has no such setting.
    """
    check_positive("expiry", expiry)
    if steps is None and engine in (LATTICE, LSM):
        raise ValidationError(f"the {engine} engine needs steps=<backward steps>")
    if engine in (MC, LSM, GREEKS) and n_paths is not None:
        if n_paths < 2:
            raise ValidationError(f"the {engine} engine needs at least 2 paths "
                                  f"for a standard error, got n_paths={n_paths}")
        if p > n_paths:
            raise ValidationError(
                f"more ranks (p={p}) than paths (n_paths={n_paths})")
    dim = model.dim
    for payoff in payoffs:
        name = type(payoff).__name__
        if payoff.dim != dim:
            raise ValidationError(
                f"payoff dim {payoff.dim} does not match model dim {dim}")
        if payoff.is_path_dependent and engine in (LATTICE, PDE, LSM):
            raise ValidationError(f"the {engine} engine prices terminal "
                                  f"payoffs only; {name} is path-dependent")
        if payoff.is_path_dependent and steps is None:
            raise ValidationError(f"{name} is path-dependent: the {engine} "
                                  f"engine needs steps=<monitoring dates>")
    if engine == PDE and dim != 2:
        raise ValidationError(f"the pde engine prices 2-asset models, got dim={dim}")
    if engine == PDE and (n_space is None or n_space % 2 or n_space < 4):
        raise ValidationError(f"the pde engine needs an even grid of at least 4 "
                              f"intervals per axis, got n_space={n_space}")
    if engine == LATTICE and steps is not None:
        check_node_limit(steps, dim)
        try:
            check_beg_probabilities(model, expiry, steps)
        except StabilityError as exc:
            raise ValidationError(str(exc)) from exc

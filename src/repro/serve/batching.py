"""Requests: the unit of work the pricing service executes.

A :class:`PricingRequest` names one contract (a
:class:`~repro.workloads.generators.Workload`) plus the engine family and
settings to price it with — the request analogue of the verification
corpus's :class:`~repro.verify.contracts.VerifyCase`. Requests are frozen,
picklable (they cross the process-pool boundary) and deterministic: two
requests with equal configs price to bitwise-equal quotes, which is what
makes them cacheable; :func:`request_key` is that cache key, and
:func:`request_keys` computes a batch's keys in one call.

A key is joined from fragments. The market, payoff and engine-settings
fragments repeat across requests (a book shares one market; a replayed
quote repeats its payoff and settings), so all three come from one
bounded, process-wide memo keyed on their *values* (dtype, shape and
bytes of an array; type and exact bits of a scalar), never on object
identity: a fresh, equal-valued request hits it exactly as a replayed
one does, and the key text stays byte-identical.

Grouping lives elsewhere: ``PricingService.price_many`` cuts its input
into ``max_batch``-sized slices, and :func:`~repro.batch.plan.plan_batches`
groups a slice's cache misses into fusable strips.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from repro.engine.names import LATTICE, LSM, MC, PDE
from repro.engine.registry import default_registry
from repro.errors import StabilityError, ValidationError
from repro.lattice.beg import check_beg_probabilities, check_node_limit
from repro.utils.lru import BoundedLRU
from repro.utils.validation import check_positive_int
from repro.verify.contracts import (describe_model, describe_payoff,
                                    encode_fragment)
from repro.workloads.generators import Workload

__all__ = ["SERVE_ENGINES", "PricingRequest", "request_key", "request_keys"]

#: Engine families the serving layer can route a request to — every
#: registry entry with a serve hook (the :mod:`repro.engine` pipeline
#: engines for MC, the BEG lattice, the ADI PDE and LSM, in that order).
SERVE_ENGINES = default_registry().names(servable=True)


@dataclass(frozen=True)
class PricingRequest:
    """One priceable unit of the request stream.

    Construction raises :class:`ValidationError` for a request its engine
    could never price: a payoff whose ``dim`` is not the model's, a PDE
    model that is not 2-asset, a path-dependent payoff on the lattice, PDE
    or LSM engine, a lattice over the BEG node limit
    or with BEG branch probabilities outside [0, 1] at its ``dt = expiry /
    steps``, more ranks ``p`` than paths ``n_paths`` on the MC or LSM
    engine, a seed that is not an integer in ``[0, 2**64)``.

    Attributes
    ----------
    workload : the contract (market model, payoff, expiry).
    engine : which parallel pricer family executes it (see
        :data:`SERVE_ENGINES`).
    n_paths : MC/LSM path budget (ignored by lattice/PDE).
    steps : monitoring / exercise / time steps; required for the lattice
        and LSM engines.
    seed : master RNG seed (MC/LSM; the lattice and PDE engines are
        seedless), stored as a plain ``int``.
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
        seed = self.seed
        if (type(seed) is bool or not isinstance(seed, (int, np.integer))
                or not 0 <= int(seed) < 2 ** 64):
            raise ValidationError(f"seed must be an integer in [0, 2**64), "
                                  f"got {seed!r}")
        object.__setattr__(self, "seed", int(seed))
        check_positive_int("n_paths", self.n_paths)
        check_positive_int("p", self.p)
        check_positive_int("grid", self.grid)
        if self.steps is not None:
            check_positive_int("steps", self.steps)
        if self.engine in (LATTICE, LSM) and self.steps is None:
            raise ValidationError(
                f"the {self.engine} engine needs steps=<backward steps>"
            )
        if self.engine in (MC, LSM) and self.p > self.n_paths:
            raise ValidationError(
                f"more ranks (p={self.p}) than paths (n_paths={self.n_paths})"
            )
        payoff, dim = self.workload.payoff, self.workload.model.dim
        if payoff.dim != dim:
            raise ValidationError(
                f"payoff dim {payoff.dim} does not match model dim {dim}"
            )
        if self.engine in (LATTICE, PDE, LSM):
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
                try:
                    check_beg_probabilities(self.workload.model,
                                            self.workload.expiry, self.steps)
                except StabilityError as exc:
                    raise ValidationError(str(exc)) from exc

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


#: Fragments the memo keeps (its resident bytes: :class:`_FragmentMemo`).
_MEMO_CAP = 1024
#: Largest array (in elements) a memo key holds, a 16-asset correlation
#: matrix; a fragment with a larger array is encoded directly.
_MEMO_MAX_ELEMENTS = 256

_pack_double = struct.Struct("<d").pack


class _Unkeyable(Exception):
    """A fragment value without a value key: encode it directly."""


def _value_key(value):
    """A hashable key such that equal keys mean equal canonical text:
    arrays by dtype, shape and bytes (numeric dtypes only), scalars by
    type and exact bits, so ``-0.0``, ``0.0``, ``1``, ``1.0`` and ``True``
    all differ. Raises :class:`_Unkeyable` for anything else.
    """
    kind = type(value)
    if kind is float:
        return kind, _pack_double(value)
    if kind is np.ndarray:
        dtype = value.dtype  # equal dtypes share kind, size and byte order
        if dtype.kind not in "biuf" or value.size > _MEMO_MAX_ELEMENTS:
            raise _Unkeyable
        return dtype, value.shape, value.tobytes()
    if kind is int or kind is bool or kind is str or value is None:
        return kind, value
    if isinstance(value, (np.floating, np.integer)):
        return kind, value.tobytes()
    raise _Unkeyable


def _market_key(model) -> tuple:
    """Value key of :func:`describe_model`'s document."""
    return ("model", _value_key(model.spots), _value_key(model.vols),
            _value_key(model.rate),
            _value_key(getattr(model, "dividends", None)),
            _value_key(model.correlation))


def _payoff_key(payoff) -> tuple:
    """Value key of :func:`describe_payoff`'s document."""
    return ("payoff", type(payoff),
            *[(name, _value_key(value)) for name, value in
              vars(payoff).items() if name[:1] != "_"])


def _tail_key(r: PricingRequest) -> tuple:
    """Value key of :func:`_describe_tail`'s document: the fields its
    settings come from, all validated integers, which encode alike when
    equal."""
    return ("tail", r.engine, r.n_paths, r.steps, r.p, r.grid, r.seed)


def _describe_tail(r: PricingRequest) -> dict:
    """The engine and settings, the key document's tail (in sorted-key
    order, after ``contract``)."""
    return {"engine": r.engine, "settings": r.settings()}


class _FragmentMemo(BoundedLRU):
    """Bounded LRU map from a fragment's value key to its encoded text,
    shared by every thread of the process. An entry holds a fragment's
    text and its value key (its arrays' raw bytes), both bounded by
    :data:`_MEMO_MAX_ELEMENTS`: :data:`_MEMO_CAP` distinct markets hold
    ~3 MB at 8 assets and ~9 MB at 16, the largest keyed."""

    def text(self, key_of, describe, obj) -> str:
        """``encode_fragment(describe(obj))``, looked up by
        ``key_of(obj)`` first."""
        try:
            key = key_of(obj)
        except _Unkeyable:
            return encode_fragment(describe(obj))
        text = self.get(key)
        if text is None:
            text = encode_fragment(describe(obj))
            self.put(key, text)
        return text


_FRAGMENTS = _FragmentMemo(_MEMO_CAP)


def request_keys(requests) -> list[str]:
    """Canonical SHA-256 cache keys of ``requests``, in order.

    A key covers exactly what determines the price — contract, engine
    family, engine settings — and nothing presentational. It digests
    ``canonical_json({"contract": describe_workload(w), "engine": ...,
    "settings": ...})``, joined in sorted-key order from fragments. A
    market, a payoff and the engine-plus-settings tail are encoded once
    per *value*, through the bounded process-wide memo (equal-valued
    instances share a fragment; a value mutated in place is a new value;
    exact bits and types, so ``1`` and ``1.0`` never share text); the
    expiry per request. A market is looked up once per model *instance*
    per call (a batch on one shocked market pays for it once): the call
    holds its requests, so their models' ids are stable while it runs.
    """
    memo = _FRAGMENTS
    requests = list(requests)
    markets: dict[int, str] = {}
    keys = []
    for r in requests:
        w = r.workload
        market = markets.get(id(w.model))
        if market is None:
            market = markets[id(w.model)] = memo.text(
                _market_key, describe_model, w.model)
        payoff = memo.text(_payoff_key, describe_payoff, w.payoff)
        tail = memo.text(_tail_key, _describe_tail, r)  # '{"engine":...}'
        text = (f'{{"contract":{{"expiry":{encode_fragment(w.expiry)},'
                f'"model":{market},"payoff":{payoff}}},{tail[1:]}')
        keys.append(hashlib.sha256(text.encode()).hexdigest())
    return keys


def request_key(request: PricingRequest) -> str:
    """Canonical SHA-256 cache key of one request (see :func:`request_keys`)."""
    return request_keys([request])[0]

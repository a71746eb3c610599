"""The verification corpus: canonical contracts every engine must agree on.

A :class:`VerifyCase` names one contract (a :class:`~repro.workloads.Workload`)
plus the engine families that can price it and the resolution/seed settings
each family should use. The corpus is the substrate shared by the
differential oracle harness (:mod:`repro.verify.oracle`), the golden-master
store (:mod:`repro.verify.golden`) and the ``repro verify`` CLI: every case
is deterministic in its recorded settings, so a snapshot of its prices is
replayable.

Case identity is a **config hash** — a SHA-256 over the canonical JSON of
the market, the payoff and every engine setting. A refactor that changes
what is being priced (rather than how fast) changes the hash, and the golden
diff reports it as a rebaseline rather than a silent drift.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.engine.registry import default_registry
from repro.errors import ValidationError
from repro.market.gbm import MultiAssetGBM
from repro.payoffs.asian import AsianGeometricCall
from repro.payoffs.basket import GeometricBasketCall
from repro.payoffs.rainbow import SpreadCall
from repro.payoffs.vanilla import Call, Put
from repro.workloads.generators import Workload, basket_workload, rainbow_workload

__all__ = [
    "VerifyCase",
    "default_corpus",
    "describe_case",
    "describe_model",
    "describe_payoff",
    "describe_workload",
    "canonical_json",
    "encode_fragment",
    "config_hash",
]

#: Engine-family keys understood by the oracle adapters — every registry
#: entry with an oracle hook, in registration order.
ENGINE_FAMILIES = default_registry().names(reference=True)


@dataclass(frozen=True)
class VerifyCase:
    """One corpus entry: a contract plus per-engine pricing settings.

    ``engines`` maps an engine-family key (see :data:`ENGINE_FAMILIES`) to
    that family's keyword settings — path counts, grid resolutions, seeds,
    or the closed form's explicit parameters. Settings are plain
    JSON-serializable values so the case can be hashed and snapshotted.
    """

    name: str
    workload: Workload
    engines: Mapping[str, dict]
    american: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = [k for k in self.engines if k not in ENGINE_FAMILIES]
        if unknown:
            raise ValidationError(
                f"case {self.name!r}: unknown engine families {unknown}; "
                f"expected keys from {ENGINE_FAMILIES}"
            )
        if len(self.engines) < 2:
            raise ValidationError(
                f"case {self.name!r} needs at least two engine families to "
                "cross-check"
            )


def _jsonable(value):
    """Recursively convert numpy scalars/arrays so json.dumps accepts them."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _numpy_default(value):
    """``json`` ``default=`` hook: what :func:`_jsonable` does to a leaf."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        item = value.item()
        if not isinstance(item, np.generic):  # longdouble.item() is itself
            return item
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


def _str_keyed(obj) -> bool:
    """True when every dict reachable through dict/list/tuple nesting has
    only ``str`` keys — the documents the C encoder canonicalizes exactly
    as :func:`_jsonable` would. Other keys differ: ``_jsonable`` makes
    them ``str(k)`` *before* sorting (``{2:…,10:…}`` → ``"10"`` first,
    ``True`` → ``"True"``), the encoder sorts them raw and writes
    ``true``."""
    if isinstance(obj, dict):
        for key in obj:
            if type(key) is not str:
                return False
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return True
    for value in obj:
        kind = type(value)
        if kind is float or kind is str or kind is int:
            continue  # the common leaves, without the isinstance calls
        if isinstance(value, (dict, list, tuple)) and not _str_keyed(value):
            return False
    return True


#: The C encoder ``JSONEncoder(sort_keys=True, separators=(",", ":"),
#: default=_numpy_default).encode`` builds on every call, built once; no
#: circular check (``markers=None``): the documents are trees.
_c_encode = json.encoder.c_make_encoder(
    None, _numpy_default, json.encoder.encode_basestring_ascii, None,
    ":", ",", True, False, True)


def encode_fragment(obj) -> str:
    """:func:`canonical_json` of a document whose dicts are all
    ``str``-keyed by construction, without the :func:`_str_keyed` walk."""
    return "".join(_c_encode(obj, 0))


def canonical_json(obj) -> str:
    """Deterministic JSON text (sorted keys, no whitespace, numpy-safe).

    Every cache key, shard route and golden hash is a digest of this
    text. A ``str``-keyed document goes straight to the C encoder (built
    once, at import), numpy leaves converted by its ``default=`` hook;
    anything else takes the recursive :func:`_jsonable` walk first. The
    text is the same either way.
    """
    return encode_fragment(obj if _str_keyed(obj) else _jsonable(obj))


def describe_payoff(payoff) -> dict:
    """A payoff's class name plus its defining parameters."""
    desc: dict = {"class": type(payoff).__name__}
    for key, val in sorted(vars(payoff).items()):
        if key.startswith("_"):
            continue
        desc[key] = _jsonable(val)
    return desc


def describe_model(model) -> dict:
    """JSON-serializable description of a market model."""
    return {
        "spots": _jsonable(model.spots),
        "vols": _jsonable(model.vols),
        "rate": model.rate,
        "dividends": _jsonable(getattr(model, "dividends", None)),
        "correlation": _jsonable(model.correlation),
    }


def describe_workload(workload: Workload) -> dict:
    """JSON-serializable description of what a workload prices.

    Deliberately excludes the workload's display ``name``: two workloads
    with the same market, payoff and expiry describe the same contract
    however they are labeled. This is the identity the serving layer's
    price cache keys on (:mod:`repro.serve.cache`), so equivalent configs
    — permuted dicts, list-vs-array parameters — hash identically.
    """
    return {
        "model": describe_model(workload.model),
        "payoff": describe_payoff(workload.payoff),
        "expiry": workload.expiry,
    }


def describe_case(case: VerifyCase) -> dict:
    """Full JSON-serializable description of a case (hash input)."""
    return {
        "name": case.name,
        **describe_workload(case.workload),
        "american": case.american,
        "engines": _jsonable({k: dict(v) for k, v in case.engines.items()}),
    }


def config_hash(case: VerifyCase) -> str:
    """SHA-256 hex digest of the case's canonical description."""
    return hashlib.sha256(canonical_json(describe_case(case)).encode()).hexdigest()


# ----------------------------------------------------------------------
# The default corpus — one case per engine-family overlap worth guarding.
# Sizes are chosen so the whole corpus prices in seconds: the oracle runs
# on every PR, so it must stay cheap enough to never be skipped.
# ----------------------------------------------------------------------

def default_corpus() -> list[VerifyCase]:
    """The committed verification corpus (deterministic; order is stable)."""
    cases: list[VerifyCase] = []

    # European call, one asset: the maximal-overlap contract — closed form,
    # MC, binomial lattice and the 1-d PDE must all agree.
    m1 = MultiAssetGBM.single(100.0, 0.2, 0.05)
    cases.append(VerifyCase(
        name="european-call-1d",
        workload=Workload("european-call-1d", m1, Call(100.0), 1.0),
        engines={
            "analytic": {"kind": "bs", "spot": 100.0, "strike": 100.0,
                         "vol": 0.2, "rate": 0.05, "expiry": 1.0,
                         "option": "call"},
            "mc": {"n_paths": 60_000, "seed": 11},
            "lattice": {"steps": 512},
            "pde": {"n_space": 256, "n_time": 128},
        },
    ))

    # Geometric 4-asset basket: the multidimensional closed form against
    # plain MC and randomized QMC.
    wb = basket_workload(4, geometric=True)
    cases.append(VerifyCase(
        name="geometric-basket-d4",
        workload=wb,
        engines={
            "analytic": {"kind": "geometric-basket"},
            "mc": {"n_paths": 60_000, "seed": 12},
            "qmc": {"n_paths": 65_536, "replicates": 8, "seed": 12},
        },
    ))

    # Two-asset max-call: Stulz closed form against MC and the BEG lattice
    # (the lattice engine the parallel slab decomposition reproduces).
    wr = rainbow_workload()
    cases.append(VerifyCase(
        name="rainbow-max-call",
        workload=wr,
        engines={
            "analytic": {"kind": "stulz", "spot1": 100.0, "spot2": 95.0,
                         "strike": 100.0, "vol1": 0.2, "vol2": 0.3,
                         "rho": 0.4, "rate": 0.05, "expiry": 1.0,
                         "option": "call-on-max"},
            "mc": {"n_paths": 60_000, "seed": 13},
            "lattice": {"steps": 128},
        },
    ))

    # Zero-strike spread = Margrabe's exchange option: an *exact* anchor for
    # the ADI PDE engine (Kirk would only be approximate at K > 0).
    m_spread = MultiAssetGBM([100.0, 96.0], [0.25, 0.2], 0.05,
                             correlation=np.array([[1.0, 0.5], [0.5, 1.0]]))
    cases.append(VerifyCase(
        name="exchange-margrabe",
        workload=Workload("exchange-margrabe", m_spread, SpreadCall(0.0), 1.0),
        engines={
            "analytic": {"kind": "margrabe", "spot1": 100.0, "spot2": 96.0,
                         "vol1": 0.25, "vol2": 0.2, "rho": 0.5,
                         "expiry": 1.0},
            "mc": {"n_paths": 60_000, "seed": 14},
            "pde": {"n_space": 128, "n_time": 64},
        },
    ))

    # Discrete geometric Asian: the path-dependent closed form against MC
    # with the same monitoring grid, and MLMC telescoping to that grid.
    cases.append(VerifyCase(
        name="geometric-asian-1d",
        workload=Workload("geometric-asian-1d", m1, AsianGeometricCall(100.0), 1.0),
        engines={
            "analytic": {"kind": "geometric-asian", "spot": 100.0,
                         "strike": 100.0, "vol": 0.2, "rate": 0.05,
                         "expiry": 1.0, "steps": 12},
            "mc": {"n_paths": 60_000, "steps": 12, "seed": 15},
            "mlmc": {"base_steps": 3, "levels": 2, "target_stderr": 0.02,
                     "pilot": 2_000, "seed": 15,
                     "max_paths_per_level": 200_000},
        },
    ))

    # American put: no closed form — the lattice, the PSOR PDE solver and
    # LSM triangulate each other (the classic three-way American check).
    cases.append(VerifyCase(
        name="american-put-1d",
        workload=Workload("american-put-1d", m1, Put(100.0), 1.0),
        american=True,
        engines={
            "lattice": {"steps": 512},
            "pde": {"n_space": 256, "n_time": 128, "solver": "psor"},
            "lsm": {"n_paths": 40_000, "steps": 50, "degree": 3, "seed": 16},
        },
    ))

    return cases

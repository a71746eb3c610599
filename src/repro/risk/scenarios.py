"""Seeded, byte-reproducible market-shock scenarios.

The Premia/Nsp benchmark paper's risk workload starts here: a scenario
is a *relative* shock applied to an existing market model — per-asset
spot and vol factors, an absolute rate shift, and a uniform off-diagonal
correlation shift — so one scenario set replays against any book. Every
generator is a pure function of its arguments (Philox draws for the
stress family, fixed tables for the historical family), and a scenario
set serializes to canonical JSON, so two builds agree **byte for byte**
(:func:`shock_bytes`) and hash to the same :func:`scenario_digest`.
That is the property the hypothesis suite pins and the ``risk``
determinism check in ``repro verify`` replays.

Correlation shocks can push a valid matrix off the PSD cone; a scenario
never ships a broken market: :func:`repair_correlation` symmetrizes,
clips to ``[-1, 1]``, restores the unit diagonal and projects to the
nearest PSD correlation (Higham one-shot) before the shocked
:class:`~repro.market.gbm.MultiAssetGBM` is constructed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.market.correlation import is_positive_semidefinite
from repro.market.gbm import MultiAssetGBM
from repro.rng import Philox4x32
from repro.utils.numerics import nearest_psd
from repro.utils.validation import check_positive, check_positive_int
from repro.verify.contracts import canonical_json
from repro.workloads.generators import Workload

__all__ = ["Scenario", "repair_correlation", "base_scenario", "shock_book",
           "stress_scenarios", "historical_scenarios", "axis_sweep",
           "horizon_scenarios", "shock_bytes", "scenario_digest"]

#: Philox stream discriminator for stress-scenario draws.
_STREAM = 0x5CE0

#: Normal draws consumed per stress scenario (dim spot + dim vol + rate +
#: correlation) — fixed so the stream position is a pure function of the
#: scenario index.
def _draws_per_scenario(dim: int) -> int:
    return 2 * dim + 2

#: Axes a single-axis sweep can bump. ``rate`` magnitudes are divided by
#: ten before shifting the short rate (a "10%" rate shock is 100 bp).
SWEEP_AXES = ("spot", "vol", "rate")

_RATE_MAGNITUDE_SCALE = 0.1


def repair_correlation(matrix: np.ndarray) -> np.ndarray:
    """Return the nearest valid correlation matrix to ``matrix``.

    Symmetrize, clip entries to ``[-1, 1]``, restore the unit diagonal,
    then project to the PSD cone only when the clipped matrix actually
    left it — so already-valid matrices pass through bitwise unchanged.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(
            f"correlation must be square, got shape {m.shape}")
    sym = 0.5 * (m + m.T)
    clipped = np.clip(sym, -1.0, 1.0)
    np.fill_diagonal(clipped, 1.0)
    if not is_positive_semidefinite(clipped):
        clipped = nearest_psd(clipped)
    return clipped


@dataclass(frozen=True)
class Scenario:
    """One canonical market shock, relative to whatever model it hits.

    ``spot_factors`` / ``vol_factors`` multiply the model's per-asset
    spots and vols (length ``dim``, or length 1 to broadcast);
    ``rate_shift`` adds to the short rate; ``corr_shift`` adds to every
    off-diagonal correlation entry (PSD-repaired on application).
    ``axis`` tags which family produced the shock (``spot`` / ``vol`` /
    ``rate`` / ``corr`` / ``joint`` / ``base``) — display metadata, like
    ``label``: neither enters the canonical description, so two
    identically shaped shocks hash identically however they were built.
    """

    label: str
    spot_factors: tuple[float, ...] = (1.0,)
    vol_factors: tuple[float, ...] = (1.0,)
    rate_shift: float = 0.0
    corr_shift: float = 0.0
    axis: str = "joint"

    def __post_init__(self) -> None:
        for name, factors in (("spot_factors", self.spot_factors),
                              ("vol_factors", self.vol_factors)):
            if not factors:
                raise ValidationError(f"{name} must not be empty")
            for f in factors:
                if not (math.isfinite(f) and f > 0.0):
                    raise ValidationError(
                        f"{name} entries must be positive finite, got {f!r}")
        if not math.isfinite(self.rate_shift):
            raise ValidationError("rate_shift must be finite")
        if not math.isfinite(self.corr_shift) or abs(self.corr_shift) > 2.0:
            raise ValidationError(
                f"corr_shift must be finite in [-2, 2], got {self.corr_shift!r}")

    def _factors(self, raw: tuple[float, ...], dim: int,
                 name: str) -> np.ndarray:
        if len(raw) == 1:
            return np.full(dim, raw[0])
        if len(raw) != dim:
            raise ValidationError(
                f"{name} has {len(raw)} entries for a dim-{dim} model")
        return np.asarray(raw, dtype=float)

    def apply(self, model: MultiAssetGBM) -> MultiAssetGBM:
        """The shocked market: a fresh, validated model instance."""
        spots = model.spots * self._factors(self.spot_factors, model.dim,
                                            "spot_factors")
        vols = model.vols * self._factors(self.vol_factors, model.dim,
                                          "vol_factors")
        corr = model.correlation
        if self.corr_shift != 0.0:
            shifted = corr + self.corr_shift * (1.0 - np.eye(model.dim))
            corr = repair_correlation(shifted)
        return MultiAssetGBM(spots, vols, model.rate + self.rate_shift,
                             model.dividends, corr)

    def describe(self) -> dict:
        """Canonical JSON-ready form — the shock alone, no display names."""
        return {"spot_factors": [float(f) for f in self.spot_factors],
                "vol_factors": [float(f) for f in self.vol_factors],
                "rate_shift": float(self.rate_shift),
                "corr_shift": float(self.corr_shift)}

    @property
    def key(self) -> str:
        """Stable SHA-256 identity of the shock (label/axis excluded)."""
        from repro.serve.cache import stable_key

        return stable_key(self.describe())


def base_scenario() -> Scenario:
    """The identity shock — reproduces the unshocked book bitwise."""
    return Scenario(label="base", axis="base")


def shock_book(book, scenario: Scenario, *, prefix: str = "") -> list[Workload]:
    """``book`` under ``scenario``: the one place a scenario meets a book.

    :meth:`Scenario.apply` — model validation, Cholesky and any
    :func:`repair_correlation` included — runs once per *distinct model
    instance*, and every contract on that market gets the same shocked
    instance. Shared by identity in a dict local to the call (``book``
    keeps the models alive, so ids are stable); equal-valued distinct
    models are shocked separately, to the same bits. ``prefix`` is
    prepended to each contract's display name.
    """
    shocked: dict[int, MultiAssetGBM] = {}
    out: list[Workload] = []
    for w in book:
        model = shocked.get(id(w.model))
        if model is None:
            model = shocked[id(w.model)] = scenario.apply(w.model)
        out.append(Workload(prefix + w.name, model, w.payoff, w.expiry))
    return out


def stress_scenarios(dim: int, n: int, *, seed: int = 0) -> list[Scenario]:
    """``n`` Philox-seeded joint stress draws for a ``dim``-asset market.

    Per-asset lognormal spot/vol factors (``exp(0.10 z)``, ``exp(0.20 z)``),
    a normal rate shift (0.005 z) and a clipped normal correlation shift
    (0.05 z); each scenario consumes a fixed block of ``2·dim + 2`` draws,
    so scenario ``i`` is a pure function of ``(seed, dim, i)``.
    """
    d = check_positive_int("dim", dim)
    check_positive_int("n", n)
    gen = Philox4x32(seed, stream=_STREAM)
    out: list[Scenario] = []
    for i in range(n):
        z = gen.normals(_draws_per_scenario(d))
        spot = tuple(float(f) for f in np.exp(0.10 * z[:d]))
        vol = tuple(float(f) for f in np.exp(0.20 * z[d:2 * d]))
        rate = float(0.005 * z[2 * d])
        corr = float(np.clip(0.05 * z[2 * d + 1], -0.5, 0.5))
        out.append(Scenario(label=f"stress-{i}", spot_factors=spot,
                            vol_factors=vol, rate_shift=rate,
                            corr_shift=corr, axis="joint"))
    return out


#: (label, uniform spot move, uniform vol move, rate shift, corr shift) —
#: the historical-style relative bump table. Fixed, seedless, canonical.
_HISTORICAL_BUMPS = (
    ("equity-down-10", -0.10, 0.20, -0.0050, 0.15),
    ("equity-down-20", -0.20, 0.50, -0.0100, 0.30),
    ("equity-up-10", 0.10, -0.10, 0.0025, -0.05),
    ("vol-spike", 0.00, 0.50, 0.0000, 0.20),
    ("rates-up-100bp", 0.00, 0.00, 0.0100, 0.00),
    ("rates-down-100bp", 0.00, 0.00, -0.0100, 0.00),
    ("correlation-breakdown", -0.05, 0.25, 0.0000, 0.40),
)


def historical_scenarios() -> list[Scenario]:
    """The fixed historical-style relative bump set (uniform per asset).

    The bumps broadcast, so the same set applies to a book of any
    dimension.
    """
    return [Scenario(label=label, spot_factors=(1.0 + ds,),
                     vol_factors=(1.0 + dv,), rate_shift=dr,
                     corr_shift=dc, axis="joint")
            for label, ds, dv, dr, dc in _HISTORICAL_BUMPS]


def axis_sweep() -> list[Scenario]:
    """Single-axis bump ladders: per axis in :data:`SWEEP_AXES`, the base
    point plus one scenario per magnitude in ``(-0.10, -0.05, 0.05,
    0.10)``.

    Spot and vol magnitudes are relative moves (``×(1 + m)``); rate
    magnitudes shift the short rate by ``m / 10`` (so ``0.10`` is
    100 bp). Each axis's ladder leads with the *same* identity scenario,
    which is what gives a swept book its exact cache hit/miss structure:
    the first axis misses on every point, every later axis hits on its
    base point and misses only on its bumped ones.
    """
    out: list[Scenario] = []
    for axis in SWEEP_AXES:
        out.append(Scenario(label=f"{axis}-base", axis=axis))
        for m in (-0.10, -0.05, 0.05, 0.10):
            if axis == "spot":
                s = Scenario(label=f"spot{m:+g}", spot_factors=(1.0 + m,),
                             axis=axis)
            elif axis == "vol":
                s = Scenario(label=f"vol{m:+g}", vol_factors=(1.0 + m,),
                             axis=axis)
            else:
                s = Scenario(label=f"rate{m:+g}",
                             rate_shift=m * _RATE_MAGNITUDE_SCALE, axis=axis)
            out.append(s)
    return out


def horizon_scenarios(model: MultiAssetGBM, n: int, horizon: float, *,
                      seed: int = 0) -> list[Scenario]:
    """``n`` distributional spot shocks: exact correlated GBM log returns
    of ``model`` over ``horizon`` (the full-revaluation VaR driver).

    Each scenario's per-asset spot factor is ``exp(X_i)`` with
    ``X ~ N(drifts·h, h·Σ)`` drawn through the model's own Cholesky
    factor — so the scenario distribution is the model's true risk-
    neutral ``h``-day distribution and the VaR backtest can compare the
    revalued quantiles against closed form.
    """
    check_positive_int("n", n)
    h = check_positive("horizon", horizon)
    gen = Philox4x32(seed, stream=_STREAM)
    z = gen.normals(n * model.dim).reshape(n, model.dim)
    x = (model.drifts[None, :] * h
         + math.sqrt(h) * model.vols[None, :] * model.correlate(z))
    return [Scenario(label=f"h-{i}",
                     spot_factors=tuple(float(f) for f in np.exp(x[i])),
                     axis="spot")
            for i in range(n)]


def shock_bytes(scenarios) -> bytes:
    """Canonical bytes of a scenario set — the byte-reproducibility
    contract: same generator arguments ⇒ identical bytes."""
    return canonical_json([s.describe() for s in scenarios]).encode()


def scenario_digest(scenarios) -> str:
    """Short SHA-256 of :func:`shock_bytes` (ledger / report identity)."""
    return hashlib.sha256(shock_bytes(scenarios)).hexdigest()[:16]

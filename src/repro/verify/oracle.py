"""Differential oracle harness: every engine family prices every corpus
contract it can, and all pairs must agree within statistically justified
tolerance bands.

Band policy (the part that makes the comparisons *honest* rather than
hand-tuned):

* **Monte Carlo families** (``mc``, ``qmc``, ``mlmc``, ``lsm``) — the band
  is ``z · stderr`` with a conservative ``z = 5``. Seeds are fixed by the
  corpus, so a run either passes forever or fails forever; the wide ``z``
  buys immunity to the one-in-a-million draw at snapshot time without
  masking real defects (an engine-constant perturbation moves the price by
  many bands — asserted in the tests). LSM additionally carries a small
  bias allowance: the estimator is known to be slightly low.
* **Discretized families** (``lattice``, ``pde``) — the band comes from
  Richardson-style step halving: price at resolution ``h`` and ``h/2``;
  for a scheme of order ``p`` the fine-grid error is approximately
  ``|P(h/2) − P(h)| / (2^p − 1)``, and the band is that estimate times a
  safety factor.
* **Closed forms** (``analytic``) — a pure-roundoff band.

Two engines *agree* when ``|price_a − price_b| ≤ band_a + band_b``.
Violations become :class:`Discrepancy` records naming the contract, the
engine pair and the exceeded band — the machine-readable failure the CI
gate uploads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine import names
from repro.engine.registry import default_registry
from repro.errors import ValidationError
from repro.verify.contracts import VerifyCase, config_hash, default_corpus

__all__ = [
    "EngineCell",
    "Discrepancy",
    "OracleReport",
    "ORACLE_ADAPTERS",
    "run_case",
    "run_oracle",
    "MC_Z",
    "DISCRETIZATION_SAFETY",
]

#: Standard-error multiplier for Monte Carlo tolerance bands.
MC_Z = 5.0
#: Multiplier on the Richardson error estimate for lattice/PDE bands.
DISCRETIZATION_SAFETY = 2.0
#: Roundoff band for closed forms (relative, with an absolute floor).
ANALYTIC_RTOL = 1e-9
#: LSM low-bias allowance as a fraction of the price.
LSM_BIAS_FRACTION = 0.005


@dataclass(frozen=True)
class EngineCell:
    """One engine family's price for one case, with its tolerance band."""

    engine: str
    price: float
    band: float
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"engine": self.engine, "price": self.price, "band": self.band,
                "detail": dict(self.detail)}


@dataclass(frozen=True)
class Discrepancy:
    """A pairwise disagreement exceeding the combined band."""

    case: str
    engine_a: str
    engine_b: str
    price_a: float
    price_b: float
    diff: float
    allowed: float

    def __str__(self) -> str:
        return (f"{self.case}: {self.engine_a}={self.price_a:.6f} vs "
                f"{self.engine_b}={self.price_b:.6f} — |diff| {self.diff:.3e} "
                f"exceeds band {self.allowed:.3e}")

    def to_dict(self) -> dict:
        return {"case": self.case, "engine_a": self.engine_a,
                "engine_b": self.engine_b, "price_a": self.price_a,
                "price_b": self.price_b, "diff": self.diff,
                "allowed": self.allowed}


@dataclass
class OracleReport:
    """All engine cells plus every pairwise violation."""

    cells: dict = field(default_factory=dict)   # case -> {engine: EngineCell}
    hashes: dict = field(default_factory=dict)  # case -> config hash
    discrepancies: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cases": {
                name: {
                    "config_hash": self.hashes.get(name, ""),
                    "engines": {e: c.to_dict() for e, c in cells.items()},
                }
                for name, cells in self.cells.items()
            },
            "discrepancies": [d.to_dict() for d in self.discrepancies],
        }


# ----------------------------------------------------------------------
# Engine adapters
# ----------------------------------------------------------------------

def _analytic_value(case: VerifyCase, params: dict) -> float:
    from repro.analytic import (
        bs_price,
        geometric_asian_price,
        geometric_basket_price,
        kirk_spread_price,
        margrabe_price,
        rainbow_two_asset_price,
    )

    kind = params.get("kind")
    rest = {k: v for k, v in params.items() if k != "kind"}
    if kind == "bs":
        option = rest.pop("option", "call")
        return float(bs_price(**rest, option=option))
    if kind == "geometric-basket":
        w = case.workload
        return float(geometric_basket_price(w.model, w.payoff.weights,
                                            w.payoff.strike, w.expiry))
    if kind == "stulz":
        option = rest.pop("option")
        return float(rainbow_two_asset_price(
            rest.pop("spot1"), rest.pop("spot2"), rest.pop("strike"),
            rest.pop("vol1"), rest.pop("vol2"), rest.pop("rho"),
            rest.pop("rate"), rest.pop("expiry"), kind=option, **rest))
    if kind == "margrabe":
        return float(margrabe_price(**rest))
    if kind == "kirk":
        return float(kirk_spread_price(**rest))
    if kind == "geometric-asian":
        return float(geometric_asian_price(
            rest.pop("spot"), rest.pop("strike"), rest.pop("vol"),
            rest.pop("rate"), rest.pop("expiry"), rest.pop("steps"), **rest))
    raise ValidationError(f"unknown analytic kind {kind!r} for case {case.name}")


def _run_analytic(case: VerifyCase, params: dict) -> EngineCell:
    price = _analytic_value(case, params)
    band = max(abs(price) * ANALYTIC_RTOL, 1e-9)
    return EngineCell(names.ANALYTIC, price, band,
                      {"kind": params.get("kind", "")})


def _run_mc(case: VerifyCase, params: dict) -> EngineCell:
    from repro.mc import MonteCarloEngine

    w = case.workload
    engine = MonteCarloEngine(params["n_paths"], steps=params.get("steps"),
                              seed=params.get("seed", 0))
    r = engine.price(w.model, w.payoff, w.expiry)
    return EngineCell(names.MC, float(r.price), MC_Z * float(r.stderr),
                      {"stderr": float(r.stderr), "n_paths": r.n_paths,
                       "z": MC_Z})


def _run_qmc(case: VerifyCase, params: dict) -> EngineCell:
    from repro.mc import MonteCarloEngine, QMCSobol

    w = case.workload
    reps = params.get("replicates", 8)
    technique = QMCSobol(reps, seed=params.get("seed", 2027))
    engine = MonteCarloEngine(params["n_paths"], technique=technique,
                              steps=params.get("steps"))
    r = engine.price(w.model, w.payoff, w.expiry)
    return EngineCell(names.QMC, float(r.price), MC_Z * float(r.stderr),
                      {"stderr": float(r.stderr), "n_paths": r.n_paths,
                       "replicates": reps, "z": MC_Z})


def _run_mlmc(case: VerifyCase, params: dict) -> EngineCell:
    from repro.mc.multilevel import mlmc_price

    w = case.workload
    r = mlmc_price(w.model, w.payoff, w.expiry, **params)
    return EngineCell(names.MLMC, float(r.price), MC_Z * float(r.stderr),
                      {"stderr": float(r.stderr), "levels": r.levels,
                       "n_per_level": list(r.n_per_level), "z": MC_Z})


def _run_lattice(case: VerifyCase, params: dict) -> EngineCell:
    """Odd/even-averaged lattice price with a two-scale error band.

    Tree prices oscillate around the limit with the parity of the step
    count, so a single two-grid Richardson difference under-estimates the
    error (the classic failure mode — measured on this corpus). The
    standard remedy: report the average of ``P(n)`` and ``P(n+1)`` (the
    pair straddles the limit, cancelling the oscillation) and take the band
    from the half-gap plus the coarse-to-fine trend of that average.
    """
    from repro.lattice import beg_price, binomial_price

    w = case.workload
    steps = params["steps"]
    if steps < 4 or steps % 2:
        raise ValidationError(
            f"case {case.name}: lattice steps must be even and ≥ 4 for the "
            f"paired halving band, got {steps}")
    model = w.model
    if model.dim == 1:
        def run(n):
            return binomial_price(float(model.spots[0]), w.payoff,
                                  float(model.vols[0]), model.rate, w.expiry,
                                  n, american=case.american)
    else:
        def run(n):
            return beg_price(model, w.payoff, w.expiry, n,
                             american=case.american)
    pair_fine = (run(steps).price, run(steps + 1).price)
    pair_coarse = (run(steps // 2).price, run(steps // 2 + 1).price)
    price = 0.5 * (pair_fine[0] + pair_fine[1])
    osc = 0.5 * abs(pair_fine[1] - pair_fine[0])
    trend = abs(price - 0.5 * (pair_coarse[0] + pair_coarse[1]))
    band = max(DISCRETIZATION_SAFETY * (osc + trend), 1e-7)
    return EngineCell(names.LATTICE, float(price), float(band),
                      {"steps": steps, "pair": [float(v) for v in pair_fine],
                       "oscillation": float(osc), "trend": float(trend)})


def _run_pde(case: VerifyCase, params: dict) -> EngineCell:
    """Fine-grid PDE price with separately estimated time and space bands.

    Halving both dimensions at once lets the (opposite-signed) temporal
    splitting error and spatial truncation error cancel in the difference —
    measured on the ADI corpus case, where the mixed-derivative term makes
    the scheme first-order in Δτ. Halving each axis on its own keeps both
    contributions visible; the band is their sum times the safety factor.
    """
    from repro.pde import adi_price, fd_price

    w = case.workload
    model = w.model
    n_space, n_time = params["n_space"], params["n_time"]
    if n_space % 4 or n_time % 2:
        raise ValidationError(
            f"case {case.name}: pde needs n_space % 4 == 0 and even n_time "
            f"for the halving band, got ({n_space}, {n_time})")
    if model.dim == 1:
        solver = params.get("solver", "psor")

        def run(ns, nt):
            return fd_price(float(model.spots[0]), w.payoff,
                            float(model.vols[0]), model.rate, w.expiry,
                            n_space=ns, n_time=nt, american=case.american,
                            american_solver=solver)
    else:
        def run(ns, nt):
            return adi_price(model, w.payoff, w.expiry, n_space=ns,
                             n_time=nt, american=case.american)
    fine = run(n_space, n_time).price
    dt_diff = abs(run(n_space, n_time // 2).price - fine)
    dx_diff = abs(run(n_space // 2, n_time).price - fine)
    band = max(DISCRETIZATION_SAFETY * (dt_diff + dx_diff), 1e-7)
    return EngineCell(names.PDE, float(fine), float(band),
                      {"n_space": n_space, "n_time": n_time,
                       "dt_diff": float(dt_diff), "dx_diff": float(dx_diff)})


def _run_lsm(case: VerifyCase, params: dict) -> EngineCell:
    from repro.mc.american import lsm_price

    w = case.workload
    r = lsm_price(w.model, w.payoff, w.expiry, params["steps"],
                  params["n_paths"], degree=params.get("degree", 2),
                  seed=params.get("seed", 0))
    band = MC_Z * float(r.stderr) + LSM_BIAS_FRACTION * abs(float(r.price))
    return EngineCell(names.LSM, float(r.price), band,
                      {"stderr": float(r.stderr), "n_paths": r.n_paths,
                       "steps": params["steps"], "z": MC_Z,
                       "bias_fraction": LSM_BIAS_FRACTION})


#: Family name → corpus adapter. The registry's oracle hooks dispatch into
#: this table; keys are the canonical :mod:`repro.engine.names` constants.
ORACLE_ADAPTERS = {
    names.ANALYTIC: _run_analytic,
    names.MC: _run_mc,
    names.QMC: _run_qmc,
    names.MLMC: _run_mlmc,
    names.LATTICE: _run_lattice,
    names.PDE: _run_pde,
    names.LSM: _run_lsm,
}


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

def run_case(case: VerifyCase) -> dict:
    """Price one case through every applicable engine family; returns
    ``{family: EngineCell}``."""
    registry = default_registry()
    out: dict[str, EngineCell] = {}
    for family, params in case.engines.items():
        spec = registry.get(family)
        if spec.oracle is None:
            raise ValidationError(
                f"engine {family!r} has no oracle adapter; reference "
                f"families: {registry.names(reference=True)}"
            )
        out[family] = spec.oracle(case, dict(params))
    return out


def compare_cells(case_name: str, cells: dict) -> list[Discrepancy]:
    """Pairwise agreement check over one case's engine cells."""
    found: list[Discrepancy] = []
    names = sorted(cells)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            ca, cb = cells[a], cells[b]
            diff = abs(ca.price - cb.price)
            allowed = ca.band + cb.band
            if diff > allowed:
                found.append(Discrepancy(case_name, a, b, ca.price, cb.price,
                                         diff, allowed))
    return found


def run_oracle(corpus=None) -> OracleReport:
    """Run the differential harness over the corpus (default: the committed
    one) and collect every pairwise violation."""
    report = OracleReport()
    for case in (corpus if corpus is not None else default_corpus()):
        cells = run_case(case)
        report.cells[case.name] = cells
        report.hashes[case.name] = config_hash(case)
        report.discrepancies.extend(compare_cells(case.name, cells))
    return report

"""Full-revaluation portfolio VaR/ES through the serving stack.

The tentpole estimator: a book of workloads, a scenario set, and one
shared :class:`~repro.serve.service.PricingService` — every scenario's
book is re-priced in full (no delta-gamma shortcuts), each revaluation
routed through the shared :class:`~repro.serve.cache.PriceCache` so the
near-duplicate structure of bumped requests shows up as measurable hit
rates. Common random numbers throughout: every request carries the same
seed and path budget, so scenario-to-base P&L differences are driven by
the shock, not by independent MC noise.

Estimators are order-statistics based and therefore permutation
invariant by construction: losses are sorted once and

    VaR_α = L_(⌈αn⌉),     ES_α = mean(L_(⌈αn⌉) … L_(n)),

which also makes ``ES ≥ VaR`` and monotonicity of VaR in ``α`` exact
(not statistical) invariants — the property suite pins both.

Accounting: ``risk.scenarios`` / ``risk.contracts`` counters and the
``risk.revalue_s`` per-scenario histogram in the metrics registry, each
bound once per sweep (:class:`~repro.obs.metrics.BoundSeries`); one
``kind="serve"`` ledger record per scenario batch (from the service)
plus one ``kind="risk"`` summary record per sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

from repro.errors import ValidationError
from repro.obs.ledger import (RunRecord, active_ledger, config_digest,
                              git_sha, new_run_id)
from repro.obs.metrics import BoundSeries
from repro.risk.scenarios import (Scenario, horizon_scenarios,
                                  scenario_digest, shock_book,
                                  stress_scenarios)
from repro.rng.normal import draw_scope, task_scope
from repro.serve.batching import PricingRequest
from repro.serve.cache import PriceCache
from repro.serve.service import PricingService
from repro.utils.formatting import Table
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["var_es", "RiskReport", "book_requests", "revalue_book",
           "portfolio_deltas", "hedged_pnl", "RiskConfig"]


def var_es(pnl, level: float) -> tuple[float, float]:
    """Empirical (VaR, ES) of a P&L sample at confidence ``level``.

    Losses are ``-pnl``; VaR is the ``⌈level·n⌉``-th order statistic and
    ES the mean of that statistic and everything beyond it. Sort-based,
    so permutation invariant, ``ES ≥ VaR`` always, and VaR is
    non-decreasing in ``level``. ``level·n`` is taken on the level's
    decimal text, so ``0.55·100`` is 55, not the float product
    55.000000000000007 (which would pick the 56th).
    """
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must be in (0, 1), got {level!r}")
    losses = np.sort(-np.asarray(pnl, dtype=float))
    n = losses.size
    if n == 0:
        raise ValidationError("var_es requires at least one P&L observation")
    num, den = Decimal(repr(float(level))).as_integer_ratio()  # exact
    k = max(-(-num * n // den), 1)
    var = float(losses[k - 1])
    es = float(losses[k - 1:].mean())
    return var, es


@dataclass
class RiskReport:
    """One full-revaluation sweep: values, P&L, tail measures, plumbing."""

    base_value: float
    values: tuple[float, ...]
    levels: dict[float, tuple[float, float]]  # level -> (VaR, ES)
    n_contracts: int
    scenarios_digest: str
    engine: str
    seed: int
    wall_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    hedged: tuple[float, ...] | None = None
    deltas: tuple[float, ...] | None = None
    per_scenario_s: list[float] = field(default_factory=list)

    @property
    def pnl(self) -> tuple[float, ...]:
        return tuple(v - self.base_value for v in self.values)

    @property
    def n_scenarios(self) -> int:
        return len(self.values)

    @property
    def scenarios_per_s(self) -> float:
        return self.n_scenarios / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def pnl_digest(self) -> str:
        """SHA-256 over the base value and every scenario value's IEEE-754
        bits — the bitwise replay identity of a sweep."""
        import hashlib

        from repro.verify.determinism import float_bits

        parts = [float_bits(self.base_value)]
        parts.extend(float_bits(v) for v in self.values)
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]

    def table(self, *, title: str = "risk report") -> Table:
        table = Table(["level", "VaR", "ES", "ES/VaR"], title=title,
                      floatfmt=".4f")
        for level in sorted(self.levels):
            var, es = self.levels[level]
            table.add_row([f"{level:.2%}", var, es,
                           es / var if var > 0 else float("nan")])
        return table

    def to_record(self, config: dict) -> RunRecord:
        worst = max(self.levels) if self.levels else None
        extra = {"base_value": self.base_value,
                 "n_scenarios": self.n_scenarios,
                 "n_contracts": self.n_contracts,
                 "scenarios_per_s": self.scenarios_per_s,
                 "hit_rate": self.hit_rate,
                 "scenarios": self.scenarios_digest,
                 "pnl_digest": self.pnl_digest()}
        if worst is not None:
            extra["var"], extra["es"] = self.levels[worst]
            extra["level"] = worst
        return RunRecord(
            run_id=new_run_id(), kind="risk", engine=self.engine,
            config=config_digest(config), backend="serve",
            workers=1, p=self.n_scenarios,
            stages={"sweep": self.wall_s}, wall_s=self.wall_s,
            extra=extra, git=git_sha())


def book_requests(book, *, engine: str, n_paths: int, seed: int,
                  p: int) -> list[PricingRequest]:
    """One request per contract of ``book`` (as is, or as
    :func:`~repro.risk.scenarios.shock_book` shocked it), all on the
    same seed and path budget — the common-random-numbers shape."""
    return [PricingRequest(w, engine=engine, n_paths=n_paths, seed=seed, p=p,
                           name=w.name)
            for w in book]


def revalue_book(book, scenarios, *, engine: str = "mc",
                 n_paths: int = 2_000, seed: int = 0, p: int = 1,
                 levels=(0.95, 0.99), service: PricingService | None = None,
                 metrics=None, ledger=None) -> RiskReport:
    """Full revaluation of ``book`` under every scenario; VaR/ES report.

    One scenario at a time through one shared service (its cache makes
    the base points of axis sweeps and repeated sweeps near-free), with
    the *same* request seed everywhere — common random numbers — so the
    scenario P&L is shock-driven. A scenario's book is one batch; the
    service fuses its misses on one shocked market into one strip task
    (per-contract bits). The sweep is one draw scope
    (:func:`~repro.rng.normal.task_scope`, joined if one is active), so
    that common-random-numbers block is drawn once per sweep, not once
    per scenario, and nothing of it outlives the call. Appends one
    ``kind="risk"`` ledger record; the service appends its own per-batch
    ``kind="serve"`` records (one per scenario when the batch bound
    covers the book).
    """
    book = list(book)
    scenarios = list(scenarios)
    if not book:
        raise ValidationError("revalue_book requires a non-empty book")
    if not scenarios:
        raise ValidationError("revalue_book requires at least one scenario")
    check_positive_int("n_paths", n_paths)
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ValidationError(f"levels must be in (0, 1), got {level!r}")

    own = service is None
    if own:
        cache = PriceCache(max(16, 4 * len(book) * (len(scenarios) + 1)),
                           metrics=metrics)
        service = PricingService(cache=cache, max_batch=len(book),
                                 metrics=metrics, ledger=ledger)
    cache = service.cache
    hits0 = cache.hits if cache is not None else 0
    misses0 = cache.misses if cache is not None else 0

    m = None if metrics is None else BoundSeries(metrics)
    values: list[float] = []
    per_scenario: list[float] = []
    t0 = time.perf_counter()
    with draw_scope(task_scope(len(scenarios) + 1)):
        base_quotes = service.price_many(book_requests(
            book, engine=engine, n_paths=n_paths, seed=seed, p=p))
        base_value = float(sum(q.price for q in base_quotes))
        for scenario in scenarios:
            s0 = time.perf_counter()
            quotes = service.price_many(book_requests(
                shock_book(book, scenario), engine=engine, n_paths=n_paths,
                seed=seed, p=p))
            values.append(float(sum(q.price for q in quotes)))
            wall = time.perf_counter() - s0
            per_scenario.append(wall)
            if m is not None:
                m["counter", "risk.scenarios"].inc()
                m["counter", "risk.contracts"].inc(len(book))
                m["histogram", "risk.revalue_s"].observe(wall)
    wall_s = time.perf_counter() - t0
    if own:
        service.close()

    pnl = np.asarray(values) - base_value
    report = RiskReport(
        base_value=base_value, values=tuple(values),
        levels={float(level): var_es(pnl, float(level)) for level in levels},
        n_contracts=len(book), scenarios_digest=scenario_digest(scenarios),
        engine=engine, seed=seed, wall_s=wall_s,
        cache_hits=(cache.hits - hits0) if cache is not None else 0,
        cache_misses=(cache.misses - misses0) if cache is not None else 0,
        per_scenario_s=per_scenario)
    book_ledger = ledger if ledger is not None else active_ledger()
    if book_ledger is not None:
        book_ledger.append(report.to_record({
            "engine": engine, "n_paths": n_paths, "seed": seed, "p": p,
            "n_contracts": len(book), "n_scenarios": len(scenarios),
            "levels": sorted(float(l) for l in levels)}))
    return report


def portfolio_deltas(book, *, service: PricingService, engine: str = "mc",
                     n_paths: int = 2_000, seed: int = 0,
                     p: int = 1) -> np.ndarray:
    """Aggregate per-asset spot deltas of the book by central difference.

    Every contract is revalued with asset ``i``'s spot bumped ±1 %
    (relative) through the same service/cache as the sweep — more
    near-duplicate requests for the hit-rate structure. All workloads
    must share one model dimension. Like :func:`revalue_book`, the
    ``2·dim`` revaluations are one draw scope: one common-random-numbers
    draw for all of them.
    """
    book = list(book)
    if not book:
        raise ValidationError("portfolio_deltas requires a non-empty book")
    bump = 0.01
    dim = book[0].model.dim
    if any(w.model.dim != dim for w in book):
        raise ValidationError("portfolio_deltas needs a single-dim book")
    deltas = np.zeros(dim)
    with draw_scope(task_scope(2 * dim)):
        for i in range(dim):
            shocked = {}
            for sign in (+1.0, -1.0):
                factors = tuple(1.0 + sign * bump if j == i else 1.0
                                for j in range(dim))
                scenario = Scenario(label=f"delta-{i}{sign:+.0f}",
                                    spot_factors=factors, axis="spot")
                quotes = service.price_many(book_requests(
                    shock_book(book, scenario), engine=engine,
                    n_paths=n_paths, seed=seed, p=p))
                shocked[sign] = float(sum(q.price for q in quotes))
            ds = 2.0 * bump * float(book[0].model.spots[i])
            deltas[i] = (shocked[+1.0] - shocked[-1.0]) / ds
    return deltas


def hedged_pnl(report: RiskReport, deltas: np.ndarray, base_spots,
               scenarios) -> tuple[float, ...]:
    """Delta-hedged scenario P&L: raw P&L minus the hedge's spot gains.

    ``pnl_hedged[s] = pnl[s] − Σ_i δ_i · S_i · (factor_si − 1)`` — the
    static delta hedge put on at the base point. Pure arithmetic over the
    report, no further pricing.
    """
    scenarios = list(scenarios)
    if len(scenarios) != report.n_scenarios:
        raise ValidationError(
            f"{len(scenarios)} scenarios for {report.n_scenarios} P&L points")
    spots = np.asarray(base_spots, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape != spots.shape:
        raise ValidationError("deltas and base_spots must align")
    out = []
    for pnl, scenario in zip(report.pnl, scenarios):
        factors = scenario._factors(scenario.spot_factors, spots.size,
                                    "spot_factors")
        hedge = float(np.dot(deltas, spots * (factors - 1.0)))
        out.append(pnl - hedge)
    return tuple(out)


@dataclass(frozen=True)
class RiskConfig:
    """Everything that determines a ``repro risk`` sweep, seed included."""

    dim: int = 2
    n_contracts: int = 4
    n_scenarios: int = 128
    generator: str = "stress"      # stress | horizon | historical | axes
    horizon: float = 10.0 / 252.0
    engine: str = "mc"
    n_paths: int = 2_000
    seed: int = 0
    p: int = 1
    levels: tuple[float, ...] = (0.95, 0.99)
    hedge: bool = False

    def __post_init__(self) -> None:
        check_positive_int("dim", self.dim)
        check_positive_int("n_contracts", self.n_contracts)
        check_positive_int("n_scenarios", self.n_scenarios)
        check_positive_int("n_paths", self.n_paths)
        check_positive("horizon", self.horizon)
        if self.generator not in ("stress", "horizon", "historical", "axes"):
            raise ValidationError(
                f"generator must be stress/horizon/historical/axes, "
                f"got {self.generator!r}")


def build_scenarios(cfg: RiskConfig, model) -> list[Scenario]:
    """The scenario set a :class:`RiskConfig` describes (deterministic)."""
    from repro.risk.scenarios import axis_sweep, historical_scenarios

    if cfg.generator == "stress":
        return stress_scenarios(cfg.dim, cfg.n_scenarios, seed=cfg.seed)
    if cfg.generator == "horizon":
        return horizon_scenarios(model, cfg.n_scenarios, cfg.horizon,
                                 seed=cfg.seed)
    if cfg.generator == "historical":
        return historical_scenarios()
    return axis_sweep()

"""Metamorphic property suite: relations that must hold *between* priced
contracts, independent of any reference value.

Differential testing (the oracle harness) catches an engine drifting away
from the others; metamorphic testing catches the whole stack drifting
together. Each property is a financial identity or invariance with a known
justification:

* **put–call parity** — exact for closed forms; for Monte Carlo priced
  under common random numbers the parity residual is the sampling error of
  the forward, bounded by ``z·(se_call + se_put)``.
* **monotonicity** (strike ↓, vol ↑, maturity ↑) — exact under common
  random numbers for strike (the payoff is pointwise monotone, so the
  sample mean inherits the ordering deterministically), statistical for
  vol, exact for closed forms and American lattices.
* **payoff-scaling homogeneity** — GBM is scale-free: pricing
  ``(λS₀, λK)`` must equal ``λ·price(S₀, K)`` to floating-point accuracy,
  path by path, because simulated prices are linear in the spot.
* **dimension reduction** — a d-dim basket with all weight on one asset is
  that asset's vanilla option (exact for the geometric closed form,
  statistical across independent MC estimates).
* **schedule invariance** — pricing a book under block / cyclic / LPT /
  dynamic scheduling must give **bitwise identical** per-contract prices:
  contract *i* always prices on substream *i*, so only the makespan may
  move. This is the property every future scheduler change is gated on.

``run_metamorphic()`` executes the whole suite and returns a list of
:class:`PropertyResult`; any ``ok=False`` entry names the violated
property, the measured residual and the allowed tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analytic import bs_price, geometric_basket_price
from repro.market.gbm import MultiAssetGBM
from repro.mc import MonteCarloEngine
from repro.payoffs.basket import BasketCall, BasketPut
from repro.payoffs.vanilla import Call, Put
from repro.lattice import binomial_price

__all__ = ["PropertyResult", "run_metamorphic", "METAMORPHIC_CHECKS"]

#: Standard-error multiplier for the statistical tolerances.
Z = 5.0


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one metamorphic check."""

    prop: str
    subject: str
    ok: bool
    measured: float
    allowed: float
    detail: str = ""

    def __str__(self) -> str:
        status = "ok" if self.ok else "VIOLATED"
        return (f"[{status}] {self.prop} — {self.subject}: residual "
                f"{self.measured:.3e} (allowed {self.allowed:.3e})"
                + (f" — {self.detail}" if self.detail else ""))

    def to_dict(self) -> dict:
        return {"prop": self.prop, "subject": self.subject, "ok": self.ok,
                "measured": self.measured, "allowed": self.allowed,
                "detail": self.detail}


def _result(prop, subject, measured, allowed, detail="") -> PropertyResult:
    return PropertyResult(prop, subject, bool(measured <= allowed),
                          float(measured), float(allowed), detail)


def _basket_market(dim: int) -> MultiAssetGBM:
    return MultiAssetGBM.equicorrelated(dim, 100.0, 0.25, 0.05, 0.3)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

def check_put_call_parity(n_paths: int, seed: int) -> list[PropertyResult]:
    out = []
    # Closed form: C − P = S − K·e^{−rT}, exactly.
    c = bs_price(100.0, 100.0, 0.2, 0.05, 1.0, option="call")
    p = bs_price(100.0, 100.0, 0.2, 0.05, 1.0, option="put")
    rhs = 100.0 - 100.0 * math.exp(-0.05)
    out.append(_result("put-call-parity", "bs-analytic",
                       abs((c - p) - rhs), 1e-9))
    # MC basket under common random numbers: the parity residual is the
    # forward's sampling error.
    model = _basket_market(4)
    w = [0.25] * 4
    strike = 100.0
    rc = MonteCarloEngine(n_paths, seed=seed).price(model, BasketCall(w, strike), 1.0)
    rp = MonteCarloEngine(n_paths, seed=seed).price(model, BasketPut(w, strike), 1.0)
    rhs = float(np.dot(w, model.spots)) - strike * math.exp(-model.rate)
    tol = Z * (rc.stderr + rp.stderr)
    out.append(_result("put-call-parity", "mc-basket-d4",
                       abs((rc.price - rp.price) - rhs), tol,
                       f"C={rc.price:.6f} P={rp.price:.6f}"))
    return out


def check_strike_monotonicity(n_paths: int, seed: int) -> list[PropertyResult]:
    out = []
    strikes = (90.0, 100.0, 110.0)
    exact = [bs_price(100.0, k, 0.2, 0.05, 1.0) for k in strikes]
    worst = max(max(b - a, 0.0) for a, b in zip(exact, exact[1:]))
    out.append(_result("strike-monotonicity", "bs-analytic", worst, 0.0))
    # Common random numbers make the MC ordering deterministic: the payoff
    # is pointwise non-increasing in K, so the sample mean is too.
    model = _basket_market(4)
    prices = [MonteCarloEngine(n_paths, seed=seed)
              .price(model, BasketCall([0.25] * 4, k), 1.0).price
              for k in strikes]
    worst = max(max(b - a, 0.0) for a, b in zip(prices, prices[1:]))
    out.append(_result("strike-monotonicity", "mc-basket-d4 (CRN)", worst,
                       1e-12, f"prices={['%.6f' % p for p in prices]}"))
    return out


def check_vol_monotonicity(n_paths: int, seed: int) -> list[PropertyResult]:
    out = []
    vols = (0.15, 0.25, 0.35)
    exact = [bs_price(100.0, 100.0, v, 0.05, 1.0) for v in vols]
    worst = max(max(a - b, 0.0) for a, b in zip(exact, exact[1:]))
    out.append(_result("vol-monotonicity", "bs-analytic", worst, 0.0))
    results = []
    for v in vols:
        model = MultiAssetGBM.equicorrelated(4, 100.0, v, 0.05, 0.3)
        results.append(MonteCarloEngine(n_paths, seed=seed)
                       .price(model, BasketCall([0.25] * 4, 100.0), 1.0))
    worst, tol = 0.0, 0.0
    for a, b in zip(results, results[1:]):
        worst = max(worst, a.price - b.price)
        tol = max(tol, Z * (a.stderr + b.stderr))
    out.append(_result("vol-monotonicity", "mc-basket-d4", worst, tol))
    return out


def check_maturity_monotonicity(n_paths: int, seed: int) -> list[PropertyResult]:
    out = []
    expiries = (0.25, 0.5, 1.0, 2.0)
    exact = [bs_price(100.0, 100.0, 0.2, 0.05, t) for t in expiries]
    worst = max(max(a - b, 0.0) for a, b in zip(exact, exact[1:]))
    out.append(_result("maturity-monotonicity", "bs-analytic (call, r>0)",
                       worst, 0.0))
    # American put value is non-decreasing in maturity (more exercise
    # opportunity can never hurt) — checked on the lattice engine.
    am = [binomial_price(100.0, Put(100.0), 0.2, 0.05, t, 256,
                         american=True).price for t in expiries]
    worst = max(max(a - b, 0.0) for a, b in zip(am, am[1:]))
    out.append(_result("maturity-monotonicity", "binomial american put",
                       worst, 1e-12))
    return out


def check_scaling_homogeneity(n_paths: int, seed: int) -> list[PropertyResult]:
    out = []
    lam = 2.5
    a = bs_price(100.0, 100.0, 0.2, 0.05, 1.0)
    b = bs_price(lam * 100.0, lam * 100.0, 0.2, 0.05, 1.0)
    out.append(_result("scaling-homogeneity", "bs-analytic",
                       abs(b - lam * a), 1e-9 * lam * a))
    model = _basket_market(4)
    scaled = MultiAssetGBM.equicorrelated(4, lam * 100.0, 0.25, 0.05, 0.3)
    base = MonteCarloEngine(n_paths, seed=seed).price(
        model, BasketCall([0.25] * 4, 100.0), 1.0).price
    big = MonteCarloEngine(n_paths, seed=seed).price(
        scaled, BasketCall([0.25] * 4, lam * 100.0), 1.0).price
    # Same normals, linear path scaling: equality holds to roundoff.
    out.append(_result("scaling-homogeneity", "mc-basket-d4 (CRN)",
                       abs(big - lam * base), 1e-9 * abs(lam * base),
                       f"λ·base={lam * base:.9f} scaled={big:.9f}"))
    return out


def check_dimension_reduction(n_paths: int, seed: int) -> list[PropertyResult]:
    out = []
    model = _basket_market(4)
    degenerate = [1.0, 0.0, 0.0, 0.0]
    exact = geometric_basket_price(model, degenerate, 100.0, 1.0)
    vanilla = bs_price(100.0, 100.0, 0.25, 0.05, 1.0)
    out.append(_result("dimension-reduction", "geometric-basket vs bs",
                       abs(exact - vanilla), 1e-9))
    rd = MonteCarloEngine(n_paths, seed=seed).price(
        model, BasketCall(degenerate, 100.0), 1.0)
    m1 = MultiAssetGBM.single(100.0, 0.25, 0.05)
    r1 = MonteCarloEngine(n_paths, seed=seed).price(m1, Call(100.0), 1.0)
    tol = Z * (rd.stderr + r1.stderr)
    out.append(_result("dimension-reduction", "mc basket[1,0,0,0] vs 1-d",
                       abs(rd.price - r1.price), tol))
    return out


def check_schedule_invariance(n_paths: int, seed: int) -> list[PropertyResult]:
    from repro.engine.portfolio import PortfolioPricer
    from repro.workloads import random_portfolio

    book = random_portfolio(6, dim=3, seed=seed)
    runs = {
        sched: PortfolioPricer(max(n_paths // 8, 1000), schedule=sched,
                               seed=seed).run(book, 3)
        for sched in ("block", "cyclic", "lpt", "dynamic")
    }
    base = runs["block"]
    worst = 0.0
    for sched, run in runs.items():
        for r_a, r_b in zip(base.results, run.results):
            worst = max(worst, abs(r_a.price - r_b.price))
    # Bitwise: schedules may only move the makespan, never the numbers.
    return [_result("schedule-invariance", "portfolio block/cyclic/lpt/dynamic",
                    worst, 0.0,
                    f"makespans={{{', '.join(f'{s}: {r.sim_time:.4g}' for s, r in runs.items())}}}")]


#: Name → check callable; each takes ``(n_paths, seed)``.
METAMORPHIC_CHECKS = {
    "put-call-parity": check_put_call_parity,
    "strike-monotonicity": check_strike_monotonicity,
    "vol-monotonicity": check_vol_monotonicity,
    "maturity-monotonicity": check_maturity_monotonicity,
    "scaling-homogeneity": check_scaling_homogeneity,
    "dimension-reduction": check_dimension_reduction,
    "schedule-invariance": check_schedule_invariance,
}


def run_metamorphic() -> list[PropertyResult]:
    """Run every metamorphic check at 30 000 paths, seed 7."""
    results: list[PropertyResult] = []
    for check in METAMORPHIC_CHECKS.values():
        results.extend(check(30_000, 7))
    return results

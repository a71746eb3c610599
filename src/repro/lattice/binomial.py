"""One-dimensional binomial lattices (CRR, Jarrow–Rudd, Tian).

Backward induction is fully vectorized per level: level ``t`` holds ``t+1``
node values, and one induction step is two shifted-slice AXPYs plus the
discount — the identical computation the parallel lattice pricer slices
across ranks (with one halo value exchanged per boundary per level).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import StabilityError, ValidationError
from repro.lattice.result import LatticeResult
from repro.payoffs.base import Payoff
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["binomial_parameters", "binomial_price"]

_SCHEMES = ("crr", "jr", "tian")


def binomial_parameters(
    vol: float, rate: float, dividend: float, dt: float, scheme: str = "crr"
) -> tuple[float, float, float]:
    """Return ``(u, d, p)`` for one step of the chosen parameterization.

    * ``crr`` — Cox–Ross–Rubinstein: ``u = e^{σ√Δt}``, ``d = 1/u``,
      risk-neutral ``p`` from the one-step martingale condition.
    * ``jr`` — Jarrow–Rudd equal-probability: ``p = 1/2`` with the drift
      folded into ``u`` and ``d``.
    * ``tian`` — Tian's third-moment-matching tree.
    """
    check_positive("vol", vol)
    check_positive("dt", dt)
    if scheme not in _SCHEMES:
        raise ValidationError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    b = rate - dividend
    if scheme == "crr":
        u = math.exp(vol * math.sqrt(dt))
        d = 1.0 / u
        p = (math.exp(b * dt) - d) / (u - d)
    elif scheme == "jr":
        drift = (b - 0.5 * vol * vol) * dt
        u = math.exp(drift + vol * math.sqrt(dt))
        d = math.exp(drift - vol * math.sqrt(dt))
        p = 0.5
    else:  # tian
        m = math.exp(b * dt)
        v = math.exp(vol * vol * dt)
        root = math.sqrt(v * v + 2.0 * v - 3.0)
        u = 0.5 * m * v * (v + 1.0 + root)
        d = 0.5 * m * v * (v + 1.0 - root)
        p = (m - d) / (u - d)
    if not 0.0 < p < 1.0:
        raise StabilityError(
            f"binomial probability p={p:.6f} outside (0, 1): "
            f"increase steps (dt={dt:.6g} too coarse for these parameters)",
            cfl=p,
        )
    return u, d, p


def binomial_price(
    spot: float,
    payoff: Payoff,
    vol: float,
    rate: float,
    expiry: float,
    steps: int,
    *,
    american: bool = False,
    scheme: str = "crr",
) -> LatticeResult:
    """Price a single-asset contract on a binomial lattice.

    ``payoff.terminal`` supplies the leaf values; for ``american=True`` the
    same function is the intrinsic value compared against continuation at
    every node. Returns price plus lattice delta/gamma read off the first
    two levels.
    """
    check_positive("spot", spot)
    check_positive("expiry", expiry)
    n = check_positive_int("steps", steps)
    if payoff.dim != 1:
        raise ValidationError(
            f"binomial_price handles single-asset payoffs; got dim={payoff.dim}. "
            "Use beg_price for multi-asset contracts."
        )
    if payoff.is_path_dependent:
        raise ValidationError(
            f"{type(payoff).__name__} is path-dependent; lattices here price "
            "state-contingent (non-path-dependent) exercise values only"
        )
    dt = expiry / n
    u, d, p = binomial_parameters(vol, rate, 0.0, dt, scheme)
    disc = math.exp(-rate * dt)

    j = np.arange(n + 1)
    prices = spot * (u ** j) * (d ** (n - j))
    values = payoff.terminal(prices[:, None])

    # Saved for delta/gamma extraction.
    level1: np.ndarray | None = None
    level2: np.ndarray | None = None

    for t in range(n - 1, -1, -1):
        values = disc * (p * values[1:] + (1.0 - p) * values[:-1])
        if american or t <= 2:
            jt = np.arange(t + 1)
            prices_t = spot * (u ** jt) * (d ** (t - jt))
            if american:
                values = np.maximum(values, payoff.intrinsic(prices_t[:, None]))
        if t == 1:
            level1 = values.copy()
        elif t == 2:
            level2 = values.copy()

    price = float(values[0])
    delta = gamma = None
    if level1 is not None and n >= 1:
        s_up, s_dn = spot * u, spot * d
        delta = np.array([(level1[1] - level1[0]) / (s_up - s_dn)])
    if level2 is not None and n >= 2:
        s_uu, s_mid, s_dd = spot * u * u, spot * u * d, spot * d * d
        d_up = (level2[2] - level2[1]) / (s_uu - s_mid)
        d_dn = (level2[1] - level2[0]) / (s_mid - s_dd)
        gamma = float(2.0 * (d_up - d_dn) / (s_uu - s_dd))
    nodes = (n + 1) * (n + 2) // 2
    return LatticeResult(
        price=price,
        steps=n,
        nodes=nodes,
        delta=delta,
        gamma=gamma,
        meta={"scheme": scheme, "american": american, "u": u, "d": d, "p": p},
    )

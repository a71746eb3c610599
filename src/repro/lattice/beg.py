"""Boyle–Evnine–Gibbs (1989) multidimensional binomial lattice.

Each of the ``d`` assets moves up or down by ``u_i = e^{σ_i√Δt}`` per step,
giving ``2^d`` joint branches with moment-matched probabilities

    p_ε = 2^{−d} [ 1 + √Δt Σ_j ε_j μ_j/σ_j + Σ_{j<k} ε_j ε_k ρ_jk ],

``ε ∈ {−1,+1}^d``, ``μ_j = r − q_j − σ_j²/2``. Level ``t`` is the value
tensor over ``(t+1)^d`` nodes; one backward step combines the ``2^d``
shifted sub-tensors of level ``t+1`` (a corner-stencil contraction) and
discounts.

This is the engine whose per-level synchronization the paper parallelizes:
the core module slices the tensor's leading axis into contiguous slabs, and
each backward step needs exactly one halo plane per slab boundary
(offset 0 or 1 along the sliced axis). :meth:`BEGLattice.step_rows` exposes
the slab computation, *bit-identical* to the matching rows of
:meth:`BEGLattice.step`; that equality is why the inline parallel pricer
may charge slabs yet compute each level with one ``step``.

Not every correlation matrix is representable: ``p_ε ≥ 0`` requires
``1 + Σ_{j<k} ε_jε_kρ_jk ≥ 0`` for all sign vectors — the well-known BEG
feasibility constraint, reported via :class:`StabilityError`.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from repro.errors import StabilityError, ValidationError
from repro.lattice.result import LatticeResult
from repro.market.gbm import MultiAssetGBM
from repro.payoffs.base import Payoff
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["BEGLattice", "beg_price", "beg_probabilities",
           "check_beg_probabilities", "check_node_limit"]

#: Refuse tensors that would not fit comfortably in memory.
_MAX_NODES = 80_000_000


def check_node_limit(steps: int, dim: int) -> None:
    """Raise :class:`ValidationError` when a ``steps``-step lattice over
    ``dim`` assets would hold more than ``_MAX_NODES`` leaves."""
    nodes = (steps + 1) ** dim
    if nodes > _MAX_NODES:
        raise ValidationError(
            f"BEG tensor of {nodes} nodes exceeds the {_MAX_NODES} node "
            f"limit; reduce steps or dimension"
        )


def check_beg_probabilities(model: MultiAssetGBM, expiry: float,
                            steps: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`beg_probabilities` at the lattice's own ``dt = expiry /
    steps``: raises :class:`StabilityError` for a lattice whose branch
    probabilities fall outside [0, 1], returns ``(offsets, probs)``."""
    return beg_probabilities(model, float(expiry) / steps)


def beg_probabilities(model: MultiAssetGBM, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(offsets, probs)`` for one BEG step.

    ``offsets`` is ``(2^d, d)`` of 0/1 (down/up per asset); ``probs`` the
    matching branch probabilities. Raises :class:`StabilityError` when any
    probability falls outside [0, 1] (Δt too coarse or correlation
    infeasible for a BEG tree).
    """
    check_positive("dt", dt)
    d = model.dim
    mu_over_sigma = model.drifts / model.vols
    rho = model.correlation
    sqrt_dt = math.sqrt(dt)
    eps_list = list(product((-1.0, 1.0), repeat=d))
    offsets = np.array([[1 if e > 0 else 0 for e in eps] for eps in eps_list], dtype=np.int64)
    probs = np.empty(len(eps_list))
    scale = 2.0 ** (-d)
    for idx, eps in enumerate(eps_list):
        e = np.asarray(eps)
        corr_term = 0.0
        for j in range(d):
            for k in range(j + 1, d):
                corr_term += e[j] * e[k] * rho[j, k]
        probs[idx] = scale * (1.0 + sqrt_dt * float(e @ mu_over_sigma) + corr_term)
    if probs.min() < -1e-12 or probs.max() > 1.0 + 1e-12:
        raise StabilityError(
            f"BEG branch probabilities outside [0, 1] "
            f"(min={probs.min():.6f}, max={probs.max():.6f}): increase steps, "
            "or the correlation matrix is infeasible for a BEG lattice",
            cfl=float(probs.min()),
        )
    probs = np.clip(probs, 0.0, 1.0)
    # Probabilities sum to one exactly by construction (correlation terms
    # cancel over the full sign hypercube); renormalize away rounding.
    probs /= probs.sum()
    return offsets, probs


class BEGLattice:
    """A configured BEG lattice over a :class:`MultiAssetGBM`.

    Parameters
    ----------
    model : the market (any ``d ≥ 1``; for ``d = 1`` this reduces to CRR).
    expiry : option maturity in years.
    steps : number of time steps ``n``; memory is ``(n+1)^d`` doubles.
    """

    def __init__(self, model: MultiAssetGBM, expiry: float, steps: int):
        check_positive("expiry", expiry)
        self.model = model
        self.expiry = float(expiry)
        self.steps = check_positive_int("steps", steps)
        self.dim = model.dim
        check_node_limit(self.steps, self.dim)
        self.dt = self.expiry / self.steps
        self.disc = math.exp(-model.rate * self.dt)
        self.up = np.exp(model.vols * math.sqrt(self.dt))
        self.offsets, self.probs = check_beg_probabilities(
            model, self.expiry, self.steps)
        # The stencil as plain ints and floats: a level's slices are built
        # from these without touching a NumPy scalar.
        self._branches = [(tuple(int(o) for o in off), float(p))
                          for off, p in zip(self.offsets, self.probs)]

    # -- grids ---------------------------------------------------------------

    def level_axes(self, t: int) -> list[np.ndarray]:
        """Per-asset price axes at level ``t``: ``S_i u_i^{2j − t}``, j=0..t."""
        if not 0 <= t <= self.steps:
            raise ValidationError(f"level {t} outside [0, {self.steps}]")
        exponents = 2.0 * np.arange(t + 1) - t
        return [
            float(self.model.spots[i]) * self.up[i] ** exponents for i in range(self.dim)
        ]

    def level_prices(self, t: int) -> np.ndarray:
        """Full price mesh at level ``t``: shape ``(t+1,)*d + (d,)``."""
        axes = self.level_axes(t)
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def payoff_values(self, payoff: Payoff, t: int) -> np.ndarray:
        """``payoff.terminal`` evaluated on level ``t``'s mesh, shaped to the tensor."""
        mesh = self.level_prices(t)
        flat = mesh.reshape(-1, self.dim)
        return payoff.terminal(flat).reshape((t + 1,) * self.dim)

    # -- backward induction ----------------------------------------------------

    def step(self, v_next: np.ndarray, t: int, out=None, tmp=None) -> np.ndarray:
        """One full backward step: level ``t+1`` tensor → level ``t`` tensor.

        Leading axes before the ``dim`` lattice axes (a stack of contracts
        sharing this lattice) ride through unchanged: the update is
        elementwise, so each stacked tensor gets the bits it gets alone.
        ``out`` (the result) and ``tmp`` (scratch), of the level-``t`` shape
        and apart from ``v_next``, replace fresh arrays; the bits are equal.
        """
        expected = (t + 2,) * self.dim
        if v_next.shape[-self.dim:] != expected:
            raise ValidationError(
                f"level {t + 1} tensor must have shape {expected}, got {v_next.shape}"
            )
        return self._stencil(v_next, t, t + 1, out, tmp)

    def step_rows(
        self, v_next_rows: np.ndarray, t: int, row_start: int, n_rows: int
    ) -> np.ndarray:
        """Slab backward step for the parallel decomposition.

        Computes rows ``[row_start, row_start + n_rows)`` (leading lattice
        axis) of the level-``t`` tensor from the corresponding rows
        ``[row_start, row_start + n_rows + 1)`` of level ``t+1``
        (``v_next_rows``; one halo row at the high end). Remaining axes are
        passed whole. Bit-identical to the matching rows of :meth:`step`,
        with or without leading stack axes before the ``dim`` lattice axes.
        """
        expected = (n_rows + 1,) + (t + 2,) * (self.dim - 1)
        if v_next_rows.shape[-self.dim:] != expected:
            raise ValidationError(
                f"slab input must have shape {expected}, got {v_next_rows.shape}"
            )
        if row_start < 0 or row_start + n_rows > t + 1:
            raise ValidationError("slab rows outside level extent")
        return self._stencil(v_next_rows, t, n_rows)

    def _stencil(self, v: np.ndarray, t: int, n_rows: int, out=None,
                 tmp=None) -> np.ndarray:
        """``disc · Σ p·v[branch offsets]`` over ``n_rows`` leading rows:
        the one body of :meth:`step` (all ``t+1`` rows) and
        :meth:`step_rows` (a slab). Elementwise ufuncs in a fixed branch
        order, so a value's bits do not depend on what sits beside it. The
        first product is written, not added onto zeros: that differs only
        where all ``2^d`` products are ``-0.0``, as no payoff's here are."""
        shape = v.shape[:-self.dim] + (n_rows,) + (t + 1,) * (self.dim - 1)
        out = np.empty(shape) if out is None else out
        tmp = np.empty(shape) if tmp is None else tmp
        for i, (off, p) in enumerate(self._branches):
            sl = (slice(off[0], off[0] + n_rows),) + tuple(
                slice(o, o + t + 1) for o in off[1:])
            np.multiply(v[(Ellipsis,) + sl], p, out=tmp if i else out)
            if i:
                out += tmp
        out *= self.disc
        return out

    # -- pricing ----------------------------------------------------------------

    def price(self, payoff: Payoff, *, american: bool = False) -> LatticeResult:
        """Run the full backward sweep and return the root value."""
        if payoff.dim != self.dim:
            raise ValidationError(
                f"payoff dim {payoff.dim} does not match lattice dim {self.dim}"
            )
        if payoff.is_path_dependent:
            raise ValidationError("BEG lattice prices non-path-dependent payoffs only")
        values = self.payoff_values(payoff, self.steps)
        level1: np.ndarray | None = None
        for t in range(self.steps - 1, -1, -1):
            values = self.step(values, t)
            if american:
                values = np.maximum(values, self.payoff_values(payoff, t))
            if t == 1:
                level1 = values.copy()
        price = float(values.reshape(-1)[0])

        delta = None
        if level1 is not None:
            delta = np.empty(self.dim)
            axes1 = self.level_axes(1)
            for i in range(self.dim):
                hi = np.take(level1, 1, axis=i).mean()
                lo = np.take(level1, 0, axis=i).mean()
                delta[i] = (hi - lo) / (axes1[i][1] - axes1[i][0])

        n = self.steps
        nodes = sum((t + 1) ** self.dim for t in range(n + 1))
        return LatticeResult(
            price=price,
            steps=n,
            nodes=nodes,
            delta=delta,
            meta={
                "scheme": "beg",
                "dim": self.dim,
                "branching": 2 ** self.dim,
                "american": american,
            },
        )


def beg_price(
    model: MultiAssetGBM,
    payoff: Payoff,
    expiry: float,
    steps: int,
    *,
    american: bool = False,
) -> LatticeResult:
    """Price ``payoff`` on a BEG lattice (functional wrapper)."""
    return BEGLattice(model, expiry, steps).price(payoff, american=american)

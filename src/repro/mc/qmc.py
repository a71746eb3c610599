"""Randomized quasi-Monte Carlo estimation with Sobol points.

Plain MC error decays as N^{−1/2}; Sobol points achieve close to N^{−1} on
smooth integrands (experiment T4 measures both slopes). Because QMC points
are *not* iid, the usual sample standard error is invalid — the estimator
here is **randomized** QMC: ``replicates`` independent digital shifts of the
same Sobol sequence, with the error estimated from the spread of replicate
means (Owen's classical recipe).

For path-dependent payoffs the Gaussian coordinates are assigned through a
**Brownian bridge**, which concentrates the path's large-scale structure in
the first (best-distributed) Sobol dimensions. When a problem needs more
dimensions than the direction-number table provides, the remaining
coordinates are filled with pseudorandom draws (hybrid QMC) — the bridge
ordering makes those the least important ones.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ValidationError
from repro.market.gbm import MultiAssetGBM
from repro.mc.statistics import SampleStats
from repro.mc.variance_reduction import BATCH_PATHS, Technique, _discounted_payoffs
from repro.payoffs.base import Payoff
from repro.rng import Philox4x32, SobolSequence, SOBOL_MAX_DIM
from repro.utils.numerics import norm_ppf
from repro.utils.validation import check_positive_int

__all__ = ["QMCSobol", "BrownianBridge"]


class BrownianBridge:
    """Brownian-bridge construction order for a path of ``steps`` increments.

    Precomputes, for each construction level, the (left, mid, right) indices
    and interpolation weights such that standard normals consumed in level
    order reproduce a discretely sampled Brownian path. Level 0 fixes the
    terminal point; each following level bisects the largest remaining gap,
    so coordinate k's influence on the path shrinks roughly like 2^{−k/2}.
    """

    def __init__(self, steps: int):
        m = check_positive_int("steps", steps)
        self.steps = m
        order: list[int] = []
        left_idx: list[int] = []
        right_idx: list[int] = []
        # Work on W at times t_1..t_m (index 1..m); W_0 = 0 is implicit.
        segments = [(0, m)]  # known endpoints (as time indices; 0 is known)
        order.append(m)
        left_idx.append(0)
        right_idx.append(m)
        queue = [(0, m)]
        while queue:
            lo, hi = queue.pop(0)
            if hi - lo <= 1:
                continue
            mid = (lo + hi) // 2
            order.append(mid)
            left_idx.append(lo)
            right_idx.append(hi)
            queue.append((lo, mid))
            queue.append((mid, hi))
        # order[0] is the terminal; the rest bisect. Build weights.
        self.order = np.asarray(order[: m], dtype=np.int64)
        self.left = np.asarray(left_idx[: m], dtype=np.int64)
        self.right = np.asarray(right_idx[: m], dtype=np.int64)

    def build(self, z: np.ndarray, horizon: float) -> np.ndarray:
        """Turn normals ``(n, steps)`` (in bridge order) into increments
        ``ΔW`` of shape ``(n, steps)`` over a grid of span ``horizon``."""
        z = np.asarray(z, dtype=float)
        n, m = z.shape
        if m != self.steps:
            raise ValidationError(f"expected {self.steps} normals per path, got {m}")
        dt = horizon / m
        times = dt * np.arange(m + 1)
        w = np.zeros((n, m + 1), dtype=float)
        # Level 0: terminal point.
        w[:, self.order[0]] = math.sqrt(times[self.order[0]]) * z[:, 0]
        for k in range(1, m):
            i, lo, hi = int(self.order[k]), int(self.left[k]), int(self.right[k])
            t_lo, t_i, t_hi = times[lo], times[i], times[hi]
            a = (t_hi - t_i) / (t_hi - t_lo)
            b = (t_i - t_lo) / (t_hi - t_lo)
            sd = math.sqrt((t_i - t_lo) * (t_hi - t_i) / (t_hi - t_lo))
            w[:, i] = a * w[:, lo] + b * w[:, hi] + sd * z[:, k]
        return np.diff(w, axis=1)


class QMCSobol(Technique):
    """Randomized QMC estimator.

    Parameters
    ----------
    replicates : number of independent digital shifts (error estimation
        needs ≥ 2; 8–32 is typical).
    seed : seeds the shift generators (replicate r uses ``seed + r``).

    Path-dependent payoffs take Brownian-bridge coordinate ordering.
    """

    name = "qmc-sobol"

    def __init__(self, replicates: int = 8, *, seed: int = 2027):
        self.replicates = check_positive_int("replicates", replicates)
        if self.replicates < 2:
            raise ValidationError("randomized QMC needs at least 2 replicates")
        self.seed = int(seed)

    # -- dimension plan ------------------------------------------------------

    def _dims(self, model: MultiAssetGBM, payoff: Payoff, steps: int | None) -> tuple[int, int]:
        """(total Gaussian dims, Sobol dims actually used)."""
        if payoff.is_path_dependent:
            if steps is None:
                raise ValidationError("path-dependent payoff requires steps")
            total = steps * model.dim
        else:
            total = model.dim
        return total, min(total, SOBOL_MAX_DIM)

    def _normals_for(
        self,
        model: MultiAssetGBM,
        payoff: Payoff,
        steps: int | None,
        n: int,
        replicate: int,
        skip: int,
    ) -> np.ndarray:
        """Generate the replicate's Gaussian block from Sobol + padding."""
        total, sdim = self._dims(model, payoff, steps)
        seq = SobolSequence(sdim, scramble=True, seed=self.seed + replicate, skip=1 + skip)
        u = seq.next(n)
        z_sobol = np.asarray(norm_ppf(u), dtype=float)
        if total > sdim:
            pad_gen = Philox4x32(self.seed ^ 0x51AB, stream=replicate + 1)
            pad_gen.jump(skip * (total - sdim))
            z_pad = pad_gen.normals(n * (total - sdim)).reshape(n, total - sdim)
            z = np.concatenate([z_sobol, z_pad], axis=1)
        else:
            z = z_sobol
        if not payoff.is_path_dependent:
            return z  # (n, d)
        m, d = steps, model.dim
        # Bridge ordering: coordinate block k (d coords) feeds bridge level k
        # of every asset, so the best Sobol dims carry the coarsest structure.
        bb = BrownianBridge(m)
        z_levels = z.reshape(n, m, d)
        out = np.empty((n, m, d), dtype=float)
        for a in range(d):
            # Build standardized increments from bridge-ordered normals for
            # a unit-horizon path, then standardize back to N(0,1) per step.
            incr = bb.build(z_levels[:, :, a], 1.0)
            out[:, :, a] = incr / math.sqrt(1.0 / m)
        return out

    # -- Technique interface -------------------------------------------------

    def partial(self, model, payoff, expiry, n, gen, *, steps=None, skip: int = 0):
        """Partial over ``n`` paths: ``n // replicates`` points per replicate,
        starting at point offset ``skip`` within each replicate's sequence.

        ``gen`` is unused (QMC points are deterministic given the seed); it
        stays in the signature so the parallel pricer can treat all
        techniques uniformly.
        """
        r_count = self.replicates
        if n % r_count:
            raise ValidationError(
                f"path count {n} must be a multiple of replicates={r_count}"
            )
        per = n // r_count
        parts = []
        for r in range(r_count):
            z = self._normals_for(model, payoff, steps, per, r, skip)
            y = _discounted_payoffs(model, payoff, expiry, z, steps)
            parts.append(SampleStats.from_values(y))
        return tuple(parts)

    def combine(self, parts: list[tuple[SampleStats, ...]]) -> tuple[SampleStats, ...]:
        out = tuple(SampleStats() for _ in range(self.replicates))
        for p in parts:
            if len(p) != self.replicates:
                raise ValidationError("replicate count mismatch while merging QMC partials")
            out = tuple(a.merge(b) for a, b in zip(out, p))
        return out

    def finalize(self, part: tuple[SampleStats, ...]) -> tuple[float, float, int]:
        means = [s.mean for s in part]
        r_count = len(means)
        mean = float(np.mean(means))
        if r_count > 1:
            stderr = float(np.std(means, ddof=1) / math.sqrt(r_count))
        else:  # pragma: no cover - constructor forbids this
            stderr = math.inf
        return mean, stderr, sum(s.n for s in part)

    def estimate(self, model, payoff, expiry, n, gen, *, steps=None):
        """Sequential estimate with per-replicate point-offset bookkeeping."""
        r_count = self.replicates
        if n % r_count:
            raise ValidationError(f"n={n} must be a multiple of replicates={r_count}")
        per_total = n // r_count
        parts = []
        done = 0
        per_batch = max(BATCH_PATHS // r_count, 1)
        while done < per_total:
            b = min(per_batch, per_total - done)
            parts.append(
                self.partial(model, payoff, expiry, b * r_count, gen, steps=steps, skip=done)
            )
            done += b
        return self.finalize(self.combine(parts))

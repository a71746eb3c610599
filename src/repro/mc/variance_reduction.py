"""Variance-reduction techniques as pluggable estimator strategies.

A :class:`Technique` turns ``(model, payoff, expiry, n, gen[, steps])`` into
a mergeable *partial* (see :mod:`repro.mc.statistics`) and later finalizes
merged partials into ``(price, stderr, n)``. The two-phase shape is exactly
what the parallel pricer needs: every rank calls :meth:`partial` on its own
substream and slice of paths; partials are tree-reduced; rank 0 finalizes.
The sequential engine uses the same code path with a single "rank".

Implemented techniques (evaluated against each other in experiment T5):

* :class:`PlainMC` — the baseline estimator.
* :class:`Antithetic` — pairs each Gaussian draw with its negation; exact
  for odd payoff components, ~2× variance reduction for monotone payoffs.
* :class:`ControlVariate` — regression-adjusts against a payoff with known
  discounted expectation (e.g. geometric basket against arithmetic basket).
* :class:`Stratified` — stratifies the first principal Gaussian coordinate
  into equal-probability strata with proportional allocation.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ValidationError
from repro.market.gbm import MultiAssetGBM
from repro.mc.statistics import CrossStats, SampleStats, StrataStats
from repro.payoffs.base import Payoff
from repro.rng.base import BitGenerator
from repro.utils.numerics import norm_ppf
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["Technique", "PlainMC", "Antithetic", "ControlVariate", "Stratified"]

#: Paths per simulation batch in the sequential estimate loops; bounds peak
#: memory at roughly ``BATCH_PATHS × steps × dim`` doubles.
BATCH_PATHS = 1 << 18


def _discounted_payoffs(
    model: MultiAssetGBM,
    payoff: Payoff,
    expiry: float,
    z: np.ndarray,
    steps: int | None,
) -> np.ndarray:
    """Map iid normals to discounted payoff samples.

    ``z`` has shape (n, d) for terminal payoffs or (n, m, d) for
    path-dependent ones; the discount factor is applied here so partials
    accumulate present values.
    """
    df = float(np.exp(-model.rate * expiry))
    if payoff.is_path_dependent:
        if steps is None:
            raise ValidationError(
                f"{type(payoff).__name__} is path-dependent: pass steps= to the engine"
            )
        paths = model.paths_from_normals(z, expiry, steps)
        return df * payoff.path(paths)
    prices = model.terminal_from_normals(z, expiry)
    return df * payoff.terminal(prices)


def _draw_normals(
    model: MultiAssetGBM, gen: BitGenerator, n: int, steps: int | None, path_dependent: bool
) -> np.ndarray:
    if path_dependent:
        if steps is None:
            raise ValidationError("path-dependent payoff requires steps")
        return gen.normals(n * steps * model.dim).reshape(n, steps, model.dim)
    return gen.normals(n * model.dim).reshape(n, model.dim)


class Technique(abc.ABC):
    """Estimator strategy: produce mergeable partials, then finalize."""

    #: Short name used in results and benchmark tables.
    name: str = "technique"

    @abc.abstractmethod
    def partial(
        self,
        model: MultiAssetGBM,
        payoff: Payoff,
        expiry: float,
        n: int,
        gen: BitGenerator,
        *,
        steps: int | None = None,
    ):
        """Simulate ``n`` paths on ``gen`` and return a mergeable partial."""

    @abc.abstractmethod
    def combine(self, parts: list):
        """Merge a list of partials into one (associative)."""

    @abc.abstractmethod
    def finalize(self, part) -> tuple[float, float, int]:
        """Turn a merged partial into ``(price, stderr, n_paths)``."""

    # Sequential convenience used by the engine and tests.
    def estimate(
        self,
        model: MultiAssetGBM,
        payoff: Payoff,
        expiry: float,
        n: int,
        gen: BitGenerator,
        *,
        steps: int | None = None,
    ) -> tuple[float, float, int]:
        check_positive_int("n", n)
        check_positive("expiry", expiry)
        parts = []
        done = 0
        while done < n:
            b = min(BATCH_PATHS, n - done)
            parts.append(self.partial(model, payoff, expiry, b, gen, steps=steps))
            done += b
        return self.finalize(self.combine(parts))


class PlainMC(Technique):
    """Crude Monte Carlo: iid paths, sample mean."""

    name = "plain"

    def partial(self, model, payoff, expiry, n, gen, *, steps=None) -> SampleStats:
        z = _draw_normals(model, gen, n, steps, payoff.is_path_dependent)
        return SampleStats.from_values(_discounted_payoffs(model, payoff, expiry, z, steps))

    def combine(self, parts: list[SampleStats]) -> SampleStats:
        out = SampleStats()
        for p in parts:
            out = out.merge(p)
        return out

    def finalize(self, part: SampleStats) -> tuple[float, float, int]:
        return part.mean, part.stderr, part.n


class Antithetic(Technique):
    """Antithetic variates: each draw ``z`` is paired with ``−z``.

    ``n`` paths means ``n/2`` independent pairs; the estimator averages the
    pair means, whose variance reflects the (typically negative) intra-pair
    covariance. Requires even ``n``.
    """

    name = "antithetic"

    def partial(self, model, payoff, expiry, n, gen, *, steps=None) -> SampleStats:
        if n % 2:
            raise ValidationError("antithetic sampling requires an even path count")
        half = n // 2
        z = _draw_normals(model, gen, half, steps, payoff.is_path_dependent)
        y_plus = _discounted_payoffs(model, payoff, expiry, z, steps)
        y_minus = _discounted_payoffs(model, payoff, expiry, -z, steps)
        # The iid units are the pair averages.
        return SampleStats.from_values(0.5 * (y_plus + y_minus))

    def combine(self, parts: list[SampleStats]) -> SampleStats:
        out = SampleStats()
        for p in parts:
            out = out.merge(p)
        return out

    def finalize(self, part: SampleStats) -> tuple[float, float, int]:
        # part.n counts pairs; report paths.
        return part.mean, part.stderr, 2 * part.n


class ControlVariate(Technique):
    """Control-variate estimator with a known-mean control payoff.

    Parameters
    ----------
    control : a :class:`Payoff` evaluated on the *same* paths as the target.
    control_mean : its exact discounted expectation (from
        :mod:`repro.analytic`).

    The regression coefficient β is computed from the globally merged
    cross-moments, so parallel and sequential runs produce the same
    estimator.
    """

    name = "control-variate"

    def __init__(self, control: Payoff, control_mean: float):
        if not isinstance(control, Payoff):
            raise ValidationError("control must be a Payoff instance")
        self.control = control
        self.control_mean = float(control_mean)

    def partial(self, model, payoff, expiry, n, gen, *, steps=None) -> CrossStats:
        if self.control.dim != payoff.dim:
            raise ValidationError(
                f"control dim {self.control.dim} != payoff dim {payoff.dim}"
            )
        path_dep = payoff.is_path_dependent or self.control.is_path_dependent
        if path_dep and steps is None:
            raise ValidationError("path-dependent control variate requires steps")
        df = float(np.exp(-model.rate * expiry))
        z = _draw_normals(model, gen, n, steps, path_dep)
        if path_dep:
            paths = model.paths_from_normals(z, expiry, steps)
            y = df * (payoff.path(paths) if payoff.is_path_dependent
                      else payoff.terminal(paths[:, -1, :]))
            x = df * (self.control.path(paths) if self.control.is_path_dependent
                      else self.control.terminal(paths[:, -1, :]))
        else:
            prices = model.terminal_from_normals(z, expiry)
            y = df * payoff.terminal(prices)
            x = df * self.control.terminal(prices)
        return CrossStats.from_values(y, x)

    def combine(self, parts: list[CrossStats]) -> CrossStats:
        out = CrossStats()
        for p in parts:
            out = out.merge(p)
        return out

    def finalize(self, part: CrossStats) -> tuple[float, float, int]:
        mean, stderr = part.adjusted(self.control_mean)
        return mean, stderr, part.n


class Stratified(Technique):
    """Proportional stratification of the first Gaussian coordinate.

    The unit hypercube's first axis is split into ``n_strata``
    equal-probability bins; within stratum ``l`` the first uniform is drawn
    from ``[l/L, (l+1)/L)`` and mapped through Φ⁻¹, the remaining
    coordinates stay iid. Effective for payoffs whose variance loads on the
    first asset (or on the first principal direction after the Cholesky
    rotation places the heaviest weight there).
    """

    name = "stratified"

    def __init__(self, n_strata: int = 16):
        self.n_strata = check_positive_int("n_strata", n_strata)

    def partial(self, model, payoff, expiry, n, gen, *, steps=None) -> StrataStats:
        if payoff.is_path_dependent:
            raise ValidationError(
                "Stratified currently supports terminal payoffs only; "
                "use QMCSobol for path-dependent contracts"
            )
        lcount = self.n_strata
        if n % lcount:
            raise ValidationError(
                f"path count {n} must be a multiple of n_strata={lcount}"
            )
        per = n // lcount
        d = model.dim
        out = StrataStats.empty(lcount)
        for l_idx in range(lcount):
            u = gen.uniforms_open(per)
            u0 = (l_idx + u) / lcount
            z = np.empty((per, d), dtype=float)
            z[:, 0] = norm_ppf(u0)
            if d > 1:
                z[:, 1:] = gen.normals(per * (d - 1)).reshape(per, d - 1)
            y = _discounted_payoffs(model, payoff, expiry, z, steps=None)
            out = out.add_stratum_values(l_idx, y)
        return out

    def combine(self, parts: list[StrataStats]) -> StrataStats:
        out = StrataStats.empty(self.n_strata)
        for p in parts:
            out = out.merge(p)
        return out

    def finalize(self, part: StrataStats) -> tuple[float, float, int]:
        return part.mean, part.stderr, part.n

"""Sequential Monte Carlo pricing engine.

This is the ``P = 1`` reference implementation the parallel pricer is
validated against: :class:`repro.engine.ParallelMCPricer` with any backend and
the same master seed reproduces this engine's estimate exactly, because both
run the same technique partials over the same substreams and merge the same
sufficient statistics.
"""

from __future__ import annotations

import time

from repro.errors import ValidationError
from repro.market.gbm import MultiAssetGBM
from repro.mc.result import MCResult
from repro.mc.variance_reduction import PlainMC, Technique
from repro.payoffs.base import Payoff
from repro.rng import Philox4x32
from repro.utils.validation import check_positive_int

__all__ = ["MonteCarloEngine"]


class MonteCarloEngine:
    """Prices payoffs by exact-sampling Monte Carlo.

    Parameters
    ----------
    n_paths : number of simulated paths.
    steps : monitoring dates for path-dependent payoffs (None = terminal
        sampling only).
    technique : a :class:`~repro.mc.variance_reduction.Technique`
        (default plain MC).
    seed : master seed of the path generator.
    """

    def __init__(
        self,
        n_paths: int,
        *,
        steps: int | None = None,
        technique: Technique | None = None,
        seed: int = 0,
    ):
        self.n_paths = check_positive_int("n_paths", n_paths)
        self.steps = None if steps is None else check_positive_int("steps", steps)
        self.technique = technique if technique is not None else PlainMC()
        if not isinstance(self.technique, Technique):
            raise ValidationError("technique must be a Technique instance")
        self.seed = int(seed)

    def price(
        self,
        model: MultiAssetGBM,
        payoff: Payoff,
        expiry: float,
    ) -> MCResult:
        """Price ``payoff`` under ``model``; returns an :class:`MCResult`."""
        # repro.engine imports this package, so its rules load at call time.
        from repro.engine.contract import check_contract
        from repro.engine.names import MC

        check_contract(MC, model, (payoff,), expiry, p=1,
                       n_paths=self.n_paths, steps=self.steps, n_space=None)
        t0 = time.perf_counter()
        price, stderr, n = self.technique.estimate(
            model,
            payoff,
            expiry,
            self.n_paths,
            Philox4x32(self.seed),
            steps=self.steps,
        )
        elapsed = time.perf_counter() - t0
        return MCResult(
            price=price,
            stderr=stderr,
            n_paths=n,
            technique=self.technique.name,
            meta={"wall_time_s": elapsed, "steps": self.steps},
        )

"""Work-unit accounting: how many abstract "flops" each pricing kernel
charges to the simulated machine.

The absolute constants only set the time scale; the *ratios* between
compute and communication terms are what shape the speedup curves. They
are rough operation counts of the vectorized kernels:

* one Gaussian variate ≈ 10 units (uniform generation + Φ⁻¹ polynomial);
* turning normals into a terminal price ≈ 4 units per asset
  (correlate + drift + exp);
* a payoff evaluation ≈ 3 units per asset + 2;
* one lattice node update = 2 units per branch (multiply–add) + discount;
* one FD grid-point half-step ≈ 8 units (tridiagonal forward+back sweep).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive, check_positive_int

__all__ = ["WorkModel"]


@dataclass(frozen=True)
class WorkModel:
    """Tunable per-operation work constants (abstract units)."""

    normal: float = 10.0
    price_per_asset: float = 4.0
    payoff_per_asset: float = 3.0
    payoff_base: float = 2.0
    lattice_branch: float = 2.0
    lattice_node_base: float = 2.0
    intrinsic_per_asset: float = 3.0
    fd_point: float = 8.0
    fd_explicit_point: float = 6.0
    fd_mixed_point: float = 6.0
    regression_per_path: float = 12.0

    def mc_path_units(self, dim: int, steps: int | None) -> float:
        """Work to simulate and evaluate one Monte Carlo path."""
        check_positive_int("dim", dim)
        m = 1 if steps is None else check_positive_int("steps", steps)
        normals = m * dim
        return (
            normals * self.normal
            + m * dim * self.price_per_asset
            + dim * self.payoff_per_asset
            + self.payoff_base
        )

    def lattice_node_units(self, dim: int) -> float:
        """Work for one backward-induction node update (2^dim branches)."""
        check_positive_int("dim", dim)
        return (2 ** dim) * self.lattice_branch + self.lattice_node_base

    def intrinsic_node_units(self, dim: int) -> float:
        """Work to evaluate the early-exercise value at one node."""
        check_positive_int("dim", dim)
        return dim * self.intrinsic_per_asset + self.payoff_base

    def adi_step_units(self, nx: int, ny: int) -> float:
        """Total work of one full ADI step on an nx × ny grid."""
        check_positive_int("nx", nx)
        check_positive_int("ny", ny)
        points = nx * ny
        return points * (
            2.0 * self.fd_point          # two implicit sweeps
            + 2.0 * self.fd_explicit_point  # two explicit applications
            + self.fd_mixed_point        # mixed-derivative stencil
        )

    def scaled(self, factor: float) -> "WorkModel":
        """A uniformly rescaled copy (changes the time unit, not the shape)."""
        check_positive("factor", factor)
        return WorkModel(
            **{k: v * factor for k, v in self.__dict__.items()}
        )

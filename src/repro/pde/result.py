"""Result object for PDE valuations."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PDEResult"]


@dataclass(frozen=True)
class PDEResult:
    """A finite-difference price with grid diagnostics; ``delta`` and
    ``gamma`` are read at the spot node."""

    price: float
    n_space: int
    n_time: int
    scheme: str
    delta: float | None = None
    gamma: float | None = None
    meta: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return (
            f"{self.price:.6f} (pde/{self.scheme}, "
            f"grid={self.n_space}x{self.n_time})"
        )

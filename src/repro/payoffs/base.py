"""Payoff interface.

A :class:`Payoff` is a pure function of market observables plus metadata the
engines need: the number of underlyings ``dim`` and whether the contract is
path-dependent (in which case Monte Carlo must simulate full monitoring
paths, and the lattice/PDE engines will refuse it unless they support the
specific structure).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ValidationError

__all__ = ["Payoff"]


class Payoff(abc.ABC):
    """Abstract payoff on ``dim`` underlyings.

    Subclasses implement :meth:`terminal`; path-dependent contracts override
    :meth:`path` as well and set ``is_path_dependent = True``.
    """

    #: Number of underlying assets the payoff reads.
    dim: int = 1
    #: Whether the payoff needs the whole monitoring path.
    is_path_dependent: bool = False

    @abc.abstractmethod
    def terminal(self, prices: np.ndarray) -> np.ndarray:
        """Payoff from terminal prices.

        Parameters
        ----------
        prices : (n, dim) array of terminal prices.

        Returns
        -------
        (n,) array of payoffs.
        """

    def path(self, paths: np.ndarray) -> np.ndarray:
        """Payoff from full paths ``(n, m+1, dim)`` (includes ``t = 0``).

        The default delegates to :meth:`terminal` on the last time slice,
        which is correct for every non-path-dependent contract.
        """
        paths = self._check_paths(paths)
        return self.terminal(paths[:, -1, :])

    def intrinsic(self, prices: np.ndarray) -> np.ndarray:
        """Immediate-exercise value at intermediate times.

        For most contracts this equals :meth:`terminal`; it is what the
        lattice and LSMC engines compare continuation values against for
        American exercise.
        """
        return self.terminal(prices)

    # -- helpers -----------------------------------------------------------

    def _check_prices(self, prices: np.ndarray) -> np.ndarray:
        arr = np.asarray(prices, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :] if self.dim > 1 else arr[:, None]
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValidationError(
                f"{type(self).__name__} expects prices of shape (n, {self.dim}), "
                f"got {np.asarray(prices).shape}"
            )
        return arr

    def _check_paths(self, paths: np.ndarray) -> np.ndarray:
        arr = np.asarray(paths, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != self.dim:
            raise ValidationError(
                f"{type(self).__name__} expects paths of shape (n, m+1, {self.dim}), "
                f"got {arr.shape}"
            )
        if arr.shape[1] < 2:
            raise ValidationError("paths must contain at least t=0 and one monitoring date")
        return arr

    def __call__(self, prices_or_paths: np.ndarray) -> np.ndarray:
        """Dispatch on array rank: 2-D → terminal, 3-D → path."""
        arr = np.asarray(prices_or_paths, dtype=float)
        if arr.ndim == 3:
            return self.path(arr)
        return self.terminal(arr)

    def __repr__(self) -> str:
        params = ", ".join(
            f"{k}={v!r}" for k, v in sorted(vars(self).items()) if not k.startswith("_")
        )
        return f"{type(self).__name__}({params})"

"""Uniform bit-source interface shared by all generators.

A :class:`BitGenerator` produces blocks of raw ``uint64`` words; uniforms and
Gaussians are derived views on those words. Implementations must be
*reproducible* (same seed → same stream) and *jumpable or splittable* so the
parallel engines can hand each rank a provably disjoint substream.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ValidationError

__all__ = ["BitGenerator"]

# 53-bit mantissa scaling: maps the top 53 bits of a uint64 to [0, 1).
_UNIFORM_SCALE = float(2.0 ** -53)

#: Draws per tile of the draw stage: Philox evaluates its rounds on this many
#: words at a time and ``normals_inverse`` maps this many uniforms through
#: Φ⁻¹ at a time, so every pass runs over L2-resident rows (8 192 Philox
#: blocks: six 64 KiB scratch rows and a 128 KiB slice of the result). Even,
#: so a seam between tiles never splits a two-word Philox block.
_TILE = 16384


class BitGenerator(abc.ABC):
    """Abstract uniform random bit source.

    Subclasses implement :meth:`random_raw` (and optionally :meth:`jump` /
    :meth:`spawn`); uniform and Gaussian sampling are provided on top.
    """

    @abc.abstractmethod
    def random_raw(self, n: int) -> np.ndarray:
        """Return the next ``n`` raw ``uint64`` words of the stream."""

    @abc.abstractmethod
    def clone(self) -> "BitGenerator":
        """Return an independent copy at the current stream position."""

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` doubles uniform on ``[0, 1)`` (53-bit resolution)."""
        if n < 0:
            raise ValidationError(f"n must be non-negative, got {n}")
        # uint64 → float64 is exact below 2^53, so the multiply converts.
        return np.multiply(self.random_raw(n) >> np.uint64(11), _UNIFORM_SCALE)

    def uniforms_open(self, n: int) -> np.ndarray:
        """Next ``n`` doubles uniform on the *open* interval ``(0, 1)``.

        Zero values (probability 2^-53 per draw) are nudged to half an ulp so
        inverse-CDF transforms never produce ``-inf``.
        """
        u = self.uniforms(n)
        tiny = 0.5 * _UNIFORM_SCALE
        np.maximum(u, tiny, out=u)
        return u

    def normals(self, n: int, method: str = "inverse") -> np.ndarray:
        """Next ``n`` standard Gaussian variates.

        ``method`` selects the transform: ``"inverse"`` (default; strictly one
        uniform per normal, the property QMC and leapfrog streams rely on),
        ``"boxmuller"`` or ``"polar"``.
        """
        from repro.rng import normal as _normal

        if method == "inverse":
            return _normal.normals_inverse(self, n)
        if method == "boxmuller":
            return _normal.normals_boxmuller(self, n)
        if method == "polar":
            return _normal.normals_polar(self, n)
        raise ValidationError(f"unknown normal sampling method {method!r}")

    def integers(self, n: int, high: int) -> np.ndarray:
        """Next ``n`` integers uniform on ``[0, high)`` via Lemire-style rejection."""
        if high <= 0:
            raise ValidationError(f"high must be positive, got {high}")
        if high == 1:
            return np.zeros(n, dtype=np.int64)
        # Rejection zone keeps the distribution exactly uniform. When high
        # divides 2^64 the zone is the whole range and no rejection happens.
        limit = (2**64 // high) * high
        reject = limit < 2**64
        out = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            raw = self.random_raw(max(n - filled, 16))
            take = (raw[raw < np.uint64(limit)] if reject else raw)[: n - filled]
            out[filled : filled + take.size] = (take % np.uint64(high)).astype(np.int64)
            filled += take.size
        return out

    # Optional capabilities ------------------------------------------------

    def jump(self, steps: int) -> None:
        """Advance the stream by ``steps`` draws in O(log steps), if supported."""
        raise NotImplementedError(f"{type(self).__name__} does not support jump()")

    def spawn(self, n: int) -> list["BitGenerator"]:
        """Return ``n`` statistically independent child generators, if supported."""
        raise NotImplementedError(f"{type(self).__name__} does not support spawn()")

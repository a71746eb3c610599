"""Sobol low-discrepancy sequences (quasi-Monte Carlo substrate).

Direction numbers follow the Joe–Kuo construction: dimension 1 is the van
der Corput sequence in base 2; higher dimensions are built from a primitive
polynomial over GF(2) plus initial direction integers ``m_k`` via the
recurrence

    m_k = 2 a_1 m_{k-1} ⊕ 2² a_2 m_{k-2} ⊕ ... ⊕ 2^{s} m_{k-s} ⊕ m_{k-s}.

Points are generated with the Antonov–Saleev Gray-code formulation, fully
vectorized: point ``k`` is the XOR of ``v_j`` over the set bits of
``gray(k) = k ⊕ (k >> 1)``, which costs 32 NumPy passes per batch regardless
of the batch size.

A random *digital shift* (XOR with a per-dimension random word) provides the
randomization used for QMC error estimation; it preserves the (t, s)-net
structure of the sequence.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = ["SobolSequence", "SOBOL_MAX_DIM"]

_BITS = 32
_SCALE = float(2.0 ** -_BITS)

# Joe–Kuo "new-joe-kuo-6" initialisation for dimensions 2..21:
# (degree s, polynomial coefficient a, initial m values m_1..m_s).
_JOE_KUO: list[tuple[int, int, tuple[int, ...]]] = [
    (1, 0, (1,)),
    (2, 1, (1, 3)),
    (3, 1, (1, 3, 1)),
    (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)),
    (4, 4, (1, 3, 5, 13)),
    (5, 2, (1, 1, 5, 5, 17)),
    (5, 4, (1, 1, 5, 5, 5)),
    (5, 7, (1, 1, 7, 11, 19)),
    (5, 11, (1, 1, 5, 1, 1)),
    (5, 13, (1, 1, 1, 3, 11)),
    (5, 14, (1, 3, 5, 5, 31)),
    (6, 1, (1, 3, 3, 9, 7, 49)),
    (6, 13, (1, 1, 1, 15, 21, 21)),
    (6, 16, (1, 3, 1, 13, 27, 49)),
    (6, 19, (1, 1, 1, 15, 7, 5)),
    (6, 22, (1, 3, 1, 15, 13, 25)),
    (6, 25, (1, 1, 5, 5, 19, 61)),
    (7, 1, (1, 3, 7, 11, 23, 15, 103)),
    (7, 4, (1, 3, 7, 13, 13, 15, 69)),
]

#: Largest supported dimensionality (dimension 1 + the Joe–Kuo table above).
SOBOL_MAX_DIM = 1 + len(_JOE_KUO)


def _direction_numbers(dim: int) -> np.ndarray:
    """Build the (dim, 32) table of direction numbers ``v_j`` (uint32-valued).

    ``v_j`` is stored left-justified in 32 bits: ``v_j = m_j << (32 - j)``.
    """
    v = np.zeros((dim, _BITS), dtype=np.uint64)
    # Dimension 0: van der Corput — m_j = 1 for all j.
    for j in range(_BITS):
        v[0, j] = np.uint64(1) << np.uint64(_BITS - 1 - j)
    for d in range(1, dim):
        s, a, m_init = _JOE_KUO[d - 1]
        m = list(m_init)
        for k in range(s, _BITS):
            # recurrence over GF(2)
            val = m[k - s] ^ (m[k - s] << s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    val ^= m[k - i] << i
            m.append(val)
        for j in range(_BITS):
            v[d, j] = np.uint64(m[j]) << np.uint64(_BITS - 1 - j)
    return v


class SobolSequence:
    """A ``dim``-dimensional Sobol sequence with optional digital-shift
    scrambling and O(1) skipping.

    Parameters
    ----------
    dim : int
        Number of coordinates per point (1 ≤ dim ≤ :data:`SOBOL_MAX_DIM`).
    scramble : bool
        Apply a random digital shift drawn from ``seed``.
    seed : int
        Seed for the scrambling words (ignored when ``scramble=False``).
    skip : int
        Index of the first point returned (supports block partitioning of
        one sequence across parallel ranks).

    Notes
    -----
    Point index 0 of the unscrambled sequence is the origin (all zeros);
    many applications skip it (``skip=1``) to avoid Φ⁻¹(0) = −∞. The
    :meth:`uniforms` accessor offsets outputs by half an ulp so values lie
    strictly inside (0, 1) either way.
    """

    def __init__(self, dim: int, *, scramble: bool = False, seed: int = 0, skip: int = 0):
        if dim < 1 or dim > SOBOL_MAX_DIM:
            raise ValidationError(
                f"Sobol dimension must lie in [1, {SOBOL_MAX_DIM}], got {dim}"
            )
        if skip < 0:
            raise ValidationError(f"skip must be non-negative, got {skip}")
        self.dim = int(dim)
        self._v = _direction_numbers(self.dim)
        self._index = int(skip)
        if scramble:
            from repro.rng.lcg import Lcg64

            shift_gen = Lcg64(seed)
            self._shift = shift_gen.random_raw(self.dim) >> np.uint64(64 - _BITS)
        else:
            self._shift = np.zeros(self.dim, dtype=np.uint64)

    # ------------------------------------------------------------------

    def _raw_points(self, start: int, n: int) -> np.ndarray:
        """Integer-valued Sobol points for indices [start, start+n) — (n, dim)."""
        idx = start + np.arange(n, dtype=np.uint64)
        gray = idx ^ (idx >> np.uint64(1))
        x = np.zeros((n, self.dim), dtype=np.uint64)
        for j in range(_BITS):
            sel = ((gray >> np.uint64(j)) & np.uint64(1)).astype(bool)
            if sel.any():
                x[sel] ^= self._v[:, j]
        x ^= self._shift
        return x

    def next(self, n: int) -> np.ndarray:
        """Return the next ``n`` points as an ``(n, dim)`` float array in (0, 1)."""
        if n < 0:
            raise ValidationError(f"n must be non-negative, got {n}")
        x = self._raw_points(self._index, n)
        self._index += n
        # +0.5 centers each point in its dyadic cell and keeps outputs off 0.
        return (x.astype(np.float64) + 0.5) * _SCALE

    def skip(self, n: int) -> None:
        """Advance the sequence position by ``n`` points (O(1))."""
        if n < 0:
            raise ValidationError(f"skip distance must be non-negative, got {n}")
        self._index += n

    @property
    def position(self) -> int:
        """Index of the next point to be generated."""
        return self._index

"""Philox-4x32-10 — a counter-based, splittable generator (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11).

Counter-based generators are the natural fit for parallel Monte Carlo: the
k-th random word is a pure function ``philox(key, k)``, so

* **jumping** is integer addition on the counter (exact, O(1)),
* **splitting** hands each rank its own key — streams are independent by
  construction, with no block-size guesswork.

The 10-round bijection is evaluated with vectorized uint64 NumPy
arithmetic, one cache-sized tile of blocks at a time: there is a per-tile
Python loop but no per-draw one, and no full-length temporary.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.rng.base import _TILE, BitGenerator
from repro.rng.lcg import _splitmix64, _MASK64

__all__ = ["Philox4x32"]

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9  # Weyl constants added to the key each round
_W1 = 0xBB67AE85
_ROUNDS = 10
_MASK32 = 0xFFFFFFFF
_LO32 = np.uint64(_MASK32)
_U32 = np.uint64(32)


def _philox_fill(out: np.ndarray, first_block: int, key0: int, key1: int) -> None:
    """Fill ``out`` — (n, 2) uint64 — with blocks ``first_block .. first_block+n−1``.

    Block ``b`` is the 10-round Philox-4x32 bijection of the 128-bit counter
    ``b`` (little-endian in four 32-bit words) under the 64-bit key; its words
    land as ``out[b] = (x0<<32 | x1, x2<<32 | x3)``. Blocks are evaluated
    ``_TILE // 2`` at a time, in place on six scratch rows allocated per call
    (draws run concurrently on threads, so scratch is never shared). Integer
    arithmetic is position-independent: the words do not depend on the tiling.
    """
    nblocks = out.shape[0]
    tile = min(_TILE // 2, nblocks)
    keys = [
        (np.uint64((key0 + r * _W0) & _MASK32), np.uint64((key1 + r * _W1) & _MASK32))
        for r in range(_ROUNDS)
    ]
    lane = np.arange(tile, dtype=np.uint64)
    scratch = np.empty((6, tile), dtype=np.uint64)
    for start in range(0, nblocks, tile):
        m = min(tile, nblocks - start)
        x0, x1, x2, x3, p0, p1 = scratch[:, :m]
        # Counter words 0 and 1 are the block index (word 1 is live: a
        # block-split rank starts r * 2^43 blocks in); words 2 and 3 are zero.
        np.add(lane[:m], np.uint64(first_block + start), out=x1)
        np.bitwise_and(x1, _LO32, out=x0)
        np.right_shift(x1, _U32, out=x1)
        x2.fill(0)
        x3.fill(0)
        for k0, k1 in keys:
            np.multiply(x0, _M0, out=p0)
            np.multiply(x2, _M1, out=p1)
            # x ^ hi ^ k of three sub-2^32 values needs no mask.
            np.right_shift(p1, _U32, out=x0)
            np.bitwise_xor(x0, x1, out=x0)
            np.bitwise_xor(x0, k0, out=x0)
            np.bitwise_and(p1, _LO32, out=x1)
            np.right_shift(p0, _U32, out=x2)
            np.bitwise_xor(x2, x3, out=x2)
            np.bitwise_xor(x2, k1, out=x2)
            np.bitwise_and(p0, _LO32, out=x3)
        np.left_shift(x0, _U32, out=x0)
        np.bitwise_or(x0, x1, out=out[start : start + m, 0])
        np.left_shift(x2, _U32, out=x2)
        np.bitwise_or(x2, x3, out=out[start : start + m, 1])


class Philox4x32(BitGenerator):
    """Philox-4x32-10 with a 128-bit block counter and 64-bit key.

    Each 128-bit block yields two ``uint64`` outputs. The generator tracks an
    absolute *raw-output index*, so :meth:`jump` is exact even across block
    boundaries.

    Parameters
    ----------
    seed : int
        Diffused into the 64-bit key via splitmix64.
    stream : int
        Optional extra stream discriminator mixed into the key; two
        generators with the same seed and different streams are independent.
    """

    def __init__(self, seed: int = 0, stream: int = 0, *, _key: tuple[int, int] | None = None,
                 _index: int = 0):
        if _key is not None:
            self._key0, self._key1 = np.uint32(_key[0]), np.uint32(_key[1])
        else:
            k = _splitmix64((int(seed) & _MASK64) ^ _splitmix64(int(stream) & _MASK64))
            self._key0 = np.uint32(k & 0xFFFFFFFF)
            self._key1 = np.uint32((k >> 32) & 0xFFFFFFFF)
        self._index = int(_index)  # absolute index of the next uint64 output

    def random_raw(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValidationError(f"n must be non-negative, got {n}")
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        first_block, offset = divmod(self._index, 2)
        words = np.empty(((offset + n + 1) // 2, 2), dtype=np.uint64)
        _philox_fill(words, first_block, int(self._key0), int(self._key1))
        self._index += n
        return words.reshape(-1)[offset : offset + n]

    def clone(self) -> "Philox4x32":
        return Philox4x32(_key=(int(self._key0), int(self._key1)), _index=self._index)

    def jump(self, steps: int) -> None:
        if steps < 0:
            raise ValidationError(f"jump distance must be non-negative, got {steps}")
        self._index += steps

    def spawn(self, n: int) -> list["Philox4x32"]:
        """Key-split children: child i re-keys with ``splitmix(key ⊕ i+1)``."""
        base = (int(self._key1) << 32) | int(self._key0)
        children = []
        for i in range(n):
            k = _splitmix64(base ^ _splitmix64(i + 1))
            children.append(
                Philox4x32(_key=(k & 0xFFFFFFFF, (k >> 32) & 0xFFFFFFFF))
            )
        return children

    @property
    def position(self) -> int:
        """Absolute index of the next raw output (for checkpointing)."""
        return self._index

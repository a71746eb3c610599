"""Random-number substrate.

Everything the parallel Monte Carlo engines need is implemented here from
scratch:

* :class:`~repro.rng.base.BitGenerator` — the uniform-bit-source interface.
* :class:`~repro.rng.lcg.Lcg64` — a 64-bit LCG with O(log k) jump-ahead,
  the classical substrate for leapfrog / block-splitting parallel streams.
* :class:`~repro.rng.philox.Philox4x32` — a counter-based (splittable)
  generator: each parallel rank gets an independent key, no jumping needed.
* :mod:`~repro.rng.normal` — Box–Muller, polar and inverse-CDF Gaussian
  transforms.
* :class:`~repro.rng.sobol.SobolSequence` — a Sobol quasi-random sequence
  (Joe–Kuo direction numbers) with optional digital-shift scrambling.
* :mod:`~repro.rng.streams` — rank→substream factories (block splitting,
  leapfrog, key splitting) used by the parallel pricers.
"""

from repro.rng.base import BitGenerator
from repro.rng.lcg import Lcg64
from repro.rng.philox import Philox4x32
from repro.rng.normal import normals_boxmuller, normals_inverse, normals_polar
from repro.rng.sobol import SobolSequence, SOBOL_MAX_DIM
from repro.rng.halton import HaltonSequence, HALTON_MAX_DIM
from repro.rng.streams import (
    StreamPartition,
    make_substreams,
    block_substream,
    leapfrog_substream,
)

__all__ = [
    "BitGenerator",
    "Lcg64",
    "Philox4x32",
    "normals_boxmuller",
    "normals_inverse",
    "normals_polar",
    "SobolSequence",
    "SOBOL_MAX_DIM",
    "HaltonSequence",
    "HALTON_MAX_DIM",
    "StreamPartition",
    "make_substreams",
    "block_substream",
    "leapfrog_substream",
]

"""Parallel substream construction.

The parallel Monte Carlo pricer must give every rank a stream that is
(a) reproducible independently of the number of ranks actually running, and
(b) provably non-overlapping with every other rank's stream. Three classical
schemes are provided (Coddington, "Random number generators for parallel
computers", 1997):

* **Block splitting** — rank ``r`` jumps ahead ``r · block_size`` draws.
  Requires a jumpable generator (:class:`Lcg64`, :class:`Philox4x32`).
* **Leapfrog** — rank ``r`` takes draws ``r, r+P, r+2P, ...``. Exact and
  cheap for the LCG (the leapfrogged LCG is itself an LCG).
* **Key splitting** — rank ``r`` gets an independently keyed generator.
  The natural scheme for counter-based generators (:class:`Philox4x32`).

``make_substreams`` is the façade :class:`repro.engine.ParallelMCPricer` uses.
"""

from __future__ import annotations

import enum
from typing import Sequence

from repro.errors import ValidationError
from repro.rng.base import BitGenerator
from repro.rng.lcg import Lcg64

__all__ = ["StreamPartition", "make_substreams", "block_substream", "leapfrog_substream"]

#: Default block size for block splitting: far larger than any realistic
#: per-rank consumption, so blocks never collide.
DEFAULT_BLOCK = 1 << 44


class StreamPartition(enum.Enum):
    """How a master stream is divided among parallel ranks."""

    BLOCK = "block"
    LEAPFROG = "leapfrog"
    KEYED = "keyed"


def block_substream(master: BitGenerator, rank: int, block_size: int = DEFAULT_BLOCK) -> BitGenerator:
    """Clone ``master`` and jump it ahead ``rank · block_size`` draws."""
    if rank < 0:
        raise ValidationError(f"rank must be non-negative, got {rank}")
    if block_size <= 0:
        raise ValidationError(f"block_size must be positive, got {block_size}")
    sub = master.clone()
    sub.jump(rank * block_size)
    return sub


def leapfrog_substream(master: BitGenerator, rank: int, nranks: int) -> BitGenerator:
    """Rank ``r``'s leapfrog view (every ``nranks``-th draw starting at ``r``).

    Only the LCG supports constant-cost leapfrogging (the strided sequence is
    itself an LCG with composed constants); other generators raise.
    """
    if nranks <= 0:
        raise ValidationError(f"nranks must be positive, got {nranks}")
    if not 0 <= rank < nranks:
        raise ValidationError(f"rank must lie in [0, {nranks}), got {rank}")
    if isinstance(master, Lcg64):
        return master.leapfrog(rank, nranks)
    raise ValidationError(
        f"leapfrog substreams require an Lcg64 master, got {type(master).__name__}"
    )


def make_substreams(
    master: BitGenerator,
    nranks: int,
    scheme: StreamPartition | str = StreamPartition.KEYED,
    *,
    block_size: int = DEFAULT_BLOCK,
) -> list[BitGenerator]:
    """Build one substream per rank from a master generator.

    The result is deterministic given (master state, nranks, scheme): the
    same seed prices to the same value no matter which backend executes the
    ranks or in which order they run.
    """
    if nranks <= 0:
        raise ValidationError(f"nranks must be positive, got {nranks}")
    scheme = StreamPartition(scheme)
    if scheme is StreamPartition.BLOCK:
        return [block_substream(master, r, block_size) for r in range(nranks)]
    if scheme is StreamPartition.LEAPFROG:
        return [leapfrog_substream(master, r, nranks) for r in range(nranks)]
    if scheme is StreamPartition.KEYED:
        return master.spawn(nranks)
    raise ValidationError(f"unknown stream partition scheme {scheme!r}")


def streams_are_disjoint(consumptions: Sequence[int], block_size: int) -> bool:
    """True when per-rank draw counts all fit inside their blocks.

    A guard used by the engines when block splitting: if any rank would
    consume more draws than ``block_size``, adjacent blocks would overlap and
    results would silently correlate.
    """
    return all(0 <= c <= block_size for c in consumptions)

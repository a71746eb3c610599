"""Closed-form collective cost models on the α–β machine.

These are the analytic counterparts of :class:`SimulatedCluster`'s
event-driven collectives and serve as the simulator's test oracle: the
test suite asserts the event-driven charges equal these closed forms — a
consistency check between the two layers of the performance model.
"""

from __future__ import annotations

import math

from repro.parallel.simcluster import MachineSpec
from repro.utils.validation import check_non_negative, check_positive_int

__all__ = [
    "tree_reduce_time",
    "linear_reduce_time",
    "bcast_time",
    "allreduce_time",
    "alltoall_time",
    "barrier_time",
    "halo_exchange_time",
]


def _msg(spec: MachineSpec, nbytes: float) -> float:
    return spec.message_time(nbytes)


def tree_reduce_time(p: int, nbytes: float, spec: MachineSpec) -> float:
    """⌈log₂ p⌉ sequential message rounds."""
    check_positive_int("p", p)
    check_non_negative("nbytes", nbytes)
    if p == 1:
        return 0.0
    return math.ceil(math.log2(p)) * _msg(spec, nbytes)


def linear_reduce_time(p: int, nbytes: float, spec: MachineSpec) -> float:
    """Root receives p−1 messages sequentially."""
    check_positive_int("p", p)
    check_non_negative("nbytes", nbytes)
    return (p - 1) * _msg(spec, nbytes)


def bcast_time(p: int, nbytes: float, spec: MachineSpec) -> float:
    """Binomial-tree broadcast — same round count as the tree reduce."""
    return tree_reduce_time(p, nbytes, spec)


def allreduce_time(p: int, nbytes: float, spec: MachineSpec) -> float:
    """Reduce-then-broadcast composition."""
    return tree_reduce_time(p, nbytes, spec) + bcast_time(p, nbytes, spec)


def alltoall_time(p: int, nbytes_per_pair: float, spec: MachineSpec) -> float:
    """Pairwise exchange: p−1 rounds."""
    check_positive_int("p", p)
    check_non_negative("nbytes_per_pair", nbytes_per_pair)
    if p == 1:
        return 0.0
    return (p - 1) * _msg(spec, nbytes_per_pair)


def barrier_time(p: int, spec: MachineSpec) -> float:
    """Dissemination barrier: ⌈log₂ p⌉ latency rounds."""
    check_positive_int("p", p)
    if p == 1:
        return 0.0
    return math.ceil(math.log2(p)) * spec.alpha


def halo_exchange_time(p: int, nbytes: float, spec: MachineSpec) -> float:
    """Nearest-neighbor exchange (two synchronized message times)."""
    check_positive_int("p", p)
    check_non_negative("nbytes", nbytes)
    if p == 1:
        return 0.0
    return 2.0 * _msg(spec, nbytes)

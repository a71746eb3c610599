"""Deterministic simulated message-passing multiprocessor.

The substitution at the heart of this reproduction (see DESIGN.md): the
paper evaluated its parallel pricers on a 2002-era multiprocessor; this
class reproduces the *cost structure* of such a machine deterministically,
so the T(P)/speedup/efficiency curves are functions of algorithmic
compute/communication volumes rather than of whatever hardware happens to
run the test suite (the CI box has a single core).

Model
-----
* Each rank owns a virtual clock (seconds).
* Computation: ``compute(rank, units)`` advances a clock by
  ``units × spec.flop_time``; the caller chooses the work unit (the pricers
  charge per path-normal, per lattice-node-branch, per grid-point).
* Communication: the classical **α–β (Hockney) model** — a message of
  ``b`` bytes between two ranks costs ``α + β·b`` and synchronizes the pair
  (rendezvous semantics: both clocks advance to the common finish time).
* Collectives are built *from those primitives* (binary-tree or linear
  reduce, tree broadcast, pairwise all-to-all), so topology choices show up
  in the curves — experiment F7 ablates tree vs linear reduction.

The cluster also keeps per-rank accounting of compute vs communication
seconds and message/byte counters, which the perf harness turns into the
overhead columns of the evaluation tables.

Fault model
-----------
A :class:`~repro.parallel.faults.FaultPlan` can be attached at
construction. The cluster consumes it deterministically: straggler events
stretch the affected rank's :meth:`compute` charges by their slowdown
factor, and recovery costs (wasted attempts, retry backoff) are charged by
:func:`repro.parallel.faults.charge_report` under the dedicated ``fault``
account, so faulty timelines stay byte-reproducible and render with their
own glyph in the Gantt view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from repro.errors import ValidationError
from repro.utils.validation import check_non_negative, check_positive, check_positive_int

__all__ = ["MachineSpec", "SimulatedCluster", "combine_on_schedule"]


def _tree_rounds(p: int, root: int) -> list[list[tuple[int, int]]]:
    """The binomial reduction tree's rounds of ``(src, dst)`` messages.

    Round ``k`` sends virtual rank ``v + 2**k`` to ``v`` for every ``v`` that
    is a multiple of ``2**(k+1)``; virtual ranks ``v = (r - root) mod p``
    relabel the tree rooted at 0 onto ``root``. A broadcast walks the same
    rounds backwards with every message reversed.
    """
    rounds = []
    dist = 1
    while dist < p:
        rounds.append([((v + dist + root) % p, (v + root) % p)
                       for v in range(0, p - dist, 2 * dist)])
        dist *= 2
    return rounds


def combine_on_schedule(payloads, combine, *, root: int = 0,
                        topology: str = "tree", on_message=None):
    """Combine per-rank ``payloads`` in the reduction schedule's exact order.

    This is the *association order* of :meth:`SimulatedCluster.reduce_data`
    factored out as a pure function of ``(len(payloads), root, topology)``:
    the cluster method delegates here (charging each simulated message via
    ``on_message``), and the batched strip reduction replays the same
    schedule per contract without charging per-contract messages — which is
    what makes a fused strip price bitwise equal to its single-contract run.

    ``on_message(src, dst)``, when given, is invoked once per simulated
    message immediately before the corresponding ``combine``.
    """
    data = list(payloads)
    if topology == "linear":
        messages = [(r, root) for r in range(len(data)) if r != root]
    else:
        messages = [m for rnd in _tree_rounds(len(data), root) for m in rnd]
    for src, dst in messages:
        if on_message is not None:
            on_message(src, dst)
        data[dst] = combine(data[dst], data[src])
    return data[root]


@dataclass(frozen=True)
class MachineSpec:
    """Cost parameters of the simulated machine.

    Defaults are loosely calibrated to a 2002-era cluster: ~100 MFLOP/s of
    *useful* pricing arithmetic per node (``flop_time = 1e-8`` s per work
    unit), ~50 µs message latency, ~100 MB/s link bandwidth
    (``beta = 1e-8`` s/byte). Experiments vary these (F7).
    """

    flop_time: float = 1e-8
    alpha: float = 50e-6
    beta: float = 1e-8

    def __post_init__(self):
        check_positive("flop_time", self.flop_time)
        check_non_negative("alpha", self.alpha)
        check_non_negative("beta", self.beta)

    def message_time(self, nbytes: float) -> float:
        """α + β·b for one point-to-point message."""
        return self.alpha + self.beta * check_non_negative("nbytes", nbytes)


@dataclass
class _RankAccount:
    compute: float = 0.0
    comm: float = 0.0
    idle: float = 0.0
    fault: float = 0.0


#: The account names :meth:`SimulatedCluster.delay` books by.
_ACCOUNT_KINDS = tuple(f.name for f in fields(_RankAccount))


class SimulatedCluster:
    """``p`` ranks with virtual clocks and α–β messaging.

    Usage pattern (what the parallel pricers do)::

        cluster = SimulatedCluster(p, spec)
        for r in range(p):
            cluster.compute(r, work_units_of_rank_r)
        cluster.reduce(nbytes=24, root=0, topology="tree")
        t_parallel = cluster.elapsed()
    """

    def __init__(self, p: int, spec: MachineSpec | None = None, *,
                 record: bool = False, faults=None, tracer=None):
        self.p = check_positive_int("p", p)
        self.spec = spec if spec is not None else MachineSpec()
        self.clocks = np.zeros(self.p, dtype=float)
        self.accounts = [_RankAccount() for _ in range(self.p)]
        self.messages = 0
        self.bytes_moved = 0.0
        #: Optional event trace: (rank, t_start, t_end, kind) tuples with
        #: kind ∈ {"compute", "comm", "idle", "fault"}. Rendered by
        #: :func:`repro.perf.gantt.render_gantt`.
        self.record = bool(record)
        self.trace: list[tuple[int, float, float, str]] = []
        #: Optional :class:`~repro.obs.Tracer`: every charged interval is
        #: also emitted as a span on track ``rank{r}`` with **simulated**
        #: timestamps, so Gantt and Perfetto render the same data. The
        #: attached tracer must be dedicated to this simulated timeline
        #: (never share one with wall-clock spans).
        self.tracer = tracer
        #: Optional :class:`~repro.parallel.faults.FaultPlan`; straggler
        #: events stretch the affected rank's compute charges.
        self.faults = faults
        if faults is not None and not faults.is_empty:
            self._slowdowns = np.array(
                [faults.slowdown(r) for r in range(self.p)], dtype=float
            )
        else:
            self._slowdowns = None

    def _log(self, rank: int, t0: float, t1: float, kind: str) -> None:
        if t1 <= t0:
            return
        if self.record:
            self.trace.append((rank, t0, t1, kind))
        if self.tracer:
            self.tracer.add_span(kind, t0, t1, rank=rank)

    # -- primitives -----------------------------------------------------------

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.p:
            raise ValidationError(f"rank must lie in [0, {self.p}), got {rank}")

    def compute(self, rank: int, units: float) -> None:
        """Advance ``rank``'s clock by ``units`` work units (stretched by
        the rank's straggler slowdown when a fault plan is attached)."""
        self._check_rank(rank)
        if units < 0:
            raise ValidationError(f"work units must be non-negative, got {units}")
        dt = units * self.spec.flop_time
        if self._slowdowns is not None:
            dt *= self._slowdowns[rank]
        self._log(rank, self.clocks[rank], self.clocks[rank] + dt, "compute")
        self.clocks[rank] += dt
        self.accounts[rank].compute += dt

    def compute_all(self, units_per_rank) -> None:
        """Charge per-rank work in one call (units_per_rank has length p)."""
        units = np.asarray(units_per_rank, dtype=float)
        if units.shape != (self.p,):
            raise ValidationError(f"expected {self.p} work entries, got {units.shape}")
        for r in range(self.p):
            self.compute(r, float(units[r]))

    def send(self, src: int, dst: int, nbytes: float) -> None:
        """Rendezvous message: both ranks end at the common finish time."""
        self._check_rank(src)
        self._check_rank(dst)
        cost = self.spec.message_time(nbytes)
        if src == dst:
            return  # self-messages are free (local memory)
        start = max(self.clocks[src], self.clocks[dst])
        finish = start + cost
        for r in (src, dst):
            self._log(r, self.clocks[r], start, "idle")
            self._log(r, start, finish, "comm")
            self.accounts[r].idle += start - self.clocks[r]
            self.accounts[r].comm += cost
            self.clocks[r] = finish
        self.messages += 1
        self.bytes_moved += float(nbytes)

    def delay(self, rank: int, seconds: float, *, kind: str = "comm") -> None:
        """Advance one rank's clock by raw seconds (dispatch overhead,
        master–worker latency, ...). ``kind`` selects the account."""
        self._check_rank(rank)
        if seconds < 0:
            raise ValidationError(f"delay must be non-negative, got {seconds}")
        if kind not in _ACCOUNT_KINDS:
            raise ValidationError(f"unknown account kind {kind!r}")
        self._log(rank, self.clocks[rank], self.clocks[rank] + seconds, kind)
        self.clocks[rank] += seconds
        account = self.accounts[rank]
        setattr(account, kind, getattr(account, kind) + seconds)

    # -- collectives -----------------------------------------------------------

    def _sync(self, cost: float, messages: int, nbytes: float) -> None:
        """One synchronized step: every rank waits for the slowest, then all
        spend ``cost`` communicating; books ``messages`` of ``nbytes``."""
        if self.p == 1:
            return
        start = float(self.clocks.max())
        for r in range(self.p):
            self._log(r, self.clocks[r], start, "idle")
            self._log(r, start, start + cost, "comm")
            self.accounts[r].idle += start - self.clocks[r]
            self.accounts[r].comm += cost
        self.clocks[:] = start + cost
        self.messages += messages
        self.bytes_moved += messages * float(nbytes)

    def barrier(self) -> None:
        """Dissemination barrier: ⌈log₂ p⌉ rounds of pairwise latency."""
        rounds = math.ceil(math.log2(self.p))
        self._sync(rounds * self.spec.alpha, 0, 0.0)

    def reduce_data(self, payloads, combine, nbytes: float, *, root: int = 0,
                    topology: str = "tree"):
        """Reduce per-rank ``payloads`` to ``root`` with ``combine(a, b)``.

        ``topology="tree"`` — recursive halving in ⌈log₂ p⌉ rounds;
        ``topology="linear"`` — root receives from every rank in turn
        (the naive baseline ablated in experiment F7). Values move along
        the charged message schedule, so the root's combined payload has
        the simulated reduction's floating-point association — what a real
        MPI reduce produces. ``combine`` must be associative.
        """
        self._check_rank(root)
        if len(payloads) != self.p:
            raise ValidationError(
                f"need one payload per rank ({self.p}), got {len(payloads)}"
            )
        if topology not in ("tree", "linear"):
            raise ValidationError(f"topology must be 'tree' or 'linear', got {topology!r}")
        check_non_negative("nbytes", nbytes)
        return combine_on_schedule(
            payloads, combine, root=root, topology=topology,
            on_message=lambda src, dst: self.send(src, dst, nbytes),
        )

    def reduce(self, nbytes: float, *, root: int = 0, topology: str = "tree") -> None:
        """Reduce a fixed-size payload to ``root``: :meth:`reduce_data`'s
        schedule and charges over payloads that carry nothing."""
        self.reduce_data([None] * self.p, lambda a, b: None, nbytes,
                         root=root, topology=topology)

    def bcast(self, nbytes: float, *, root: int = 0) -> None:
        """Binomial-tree broadcast from ``root``: the reduction tree's
        rounds backwards, every message reversed."""
        self._check_rank(root)
        check_non_negative("nbytes", nbytes)
        for rnd in reversed(_tree_rounds(self.p, root)):
            for src, dst in rnd:
                self.send(dst, src, nbytes)

    def allreduce(self, nbytes: float) -> None:
        """Tree-reduce to rank 0 then broadcast (reduce+bcast composition)."""
        self.reduce(nbytes, root=0, topology="tree")
        self.bcast(nbytes, root=0)

    def alltoall(self, nbytes_per_pair: float) -> None:
        """Pairwise-exchange all-to-all: p−1 rounds, each rank sends/receives
        ``nbytes_per_pair`` per round (used by the ADI transpose)."""
        check_non_negative("nbytes_per_pair", nbytes_per_pair)
        cost = (self.p - 1) * self.spec.message_time(nbytes_per_pair)
        self._sync(cost, self.p * (self.p - 1), nbytes_per_pair)

    def halo_exchange(self, nbytes: float) -> None:
        """Nearest-neighbor exchange along a 1-D rank chain (lattice slabs):
        every interior boundary moves one message each way, overlappable, so
        the synchronized cost is two message times."""
        self._sync(2.0 * self.spec.message_time(nbytes), 2 * (self.p - 1),
                   nbytes)

    # -- accounting ------------------------------------------------------------

    def elapsed(self) -> float:
        """Simulated makespan: the slowest rank's clock."""
        return float(self.clocks.max())

    @property
    def compute_time(self) -> float:
        """Max per-rank pure-compute seconds (the critical compute path)."""
        return max(a.compute for a in self.accounts)

    @property
    def comm_time(self) -> float:
        """Max per-rank communication seconds."""
        return max(a.comm for a in self.accounts)

    @property
    def idle_time(self) -> float:
        """Max per-rank idle (load-imbalance wait) seconds."""
        return max(a.idle for a in self.accounts)

    @property
    def fault_time(self) -> float:
        """Max per-rank seconds lost to failed attempts (recovery cost)."""
        return max(a.fault for a in self.accounts)

    def rank_breakdown(self) -> list[dict]:
        """Per-rank seconds by account, in rank order — the raw material
        for load-imbalance diagnostics and the obs metrics snapshot."""
        return [dict(vars(a)) for a in self.accounts]

    def report(self) -> dict:
        """Summary dict used by the perf harness: the per-rank maxima plus
        the full per-rank breakdown under ``"ranks"``."""
        return {
            "p": self.p,
            "elapsed": self.elapsed(),
            "compute_time": self.compute_time,
            "comm_time": self.comm_time,
            "idle_time": self.idle_time,
            "fault_time": self.fault_time,
            "messages": self.messages,
            "bytes_moved": self.bytes_moved,
            "ranks": self.rank_breakdown(),
        }

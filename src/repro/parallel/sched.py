"""Pluggable execute-stage schedulers: how tasks meet workers.

Before this module, "which worker runs which rank task, when" was smeared
across four layers — chunked ``backend.map``, the fault middleware's
round-based retries, the :class:`~repro.parallel.backends.ChunkAutotuner`,
and the simulated cluster's static block partitions. A
:class:`Scheduler` puts that decision in one place, with three strategies:

* :class:`StaticChunkScheduler` — today's behaviour, bit-for-bit: one
  chunked ``backend.map`` in task order. The default everywhere; a run
  that never names a scheduler executes exactly the pre-scheduler code
  path.
* :class:`LPTScheduler` — longest-processing-time list scheduling over
  per-task cost *estimates* (mapped engines supply per-rank path counts
  via ``engine.task_costs``). Tasks are dispatched one per message in
  descending estimated cost; a work-conserving pool then realizes the
  classical LPT greedy schedule. Only as good as its estimates.
* :class:`WorkStealingScheduler` — per-worker deques seeded from the
  block partition; a worker whose deque runs dry steals from the *back*
  of a victim's deque, victims tried in a seeded permutation order. No
  cost estimates needed: the balance emerges from observed completion.

**Determinism contract.** A scheduler never touches the arithmetic: every
task runs the same worker function on the same payload, and results are
reassembled **by task index**, so prices are bitwise identical under
every strategy, every backend and every fault-retry interleaving (gated
by the ``scheduler`` determinism check). What is *not* promised on real
backends is the steal schedule itself — which slot frees first is a
wall-clock race. For byte-reproducible schedules (property tests, the
simulated cluster's load-balance curves, benchmark F19's LPT-vs-steal
comparison) use :func:`simulate_schedule`, the virtual-time executor: a
pure function of ``(costs, workers, strategy, seed)``.

Observability: with a metrics registry on the backend, every stealing map
feeds ``sched.steals`` / ``sched.tasks_moved`` counters and per-worker
``sched.queue_depth`` gauges; with a tracer, each steal lands as an
instant event next to the worker task spans.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.parallel.backends import _TimedCall
from repro.parallel.partition import block_sizes
from repro.utils.validation import check_non_negative, check_positive_int

__all__ = [
    "StealEvent",
    "SchedStats",
    "Scheduler",
    "StaticChunkScheduler",
    "LPTScheduler",
    "WorkStealingScheduler",
    "SCHEDULER_NAMES",
    "resolve_scheduler",
    "VirtualSchedule",
    "simulate_schedule",
]

#: Public strategy names, in documentation order (CLI choices, registry).
SCHEDULER_NAMES = ("static", "lpt", "steal")


@dataclass(frozen=True)
class StealEvent:
    """One steal: ``thief`` took ``task`` from the back of ``victim``'s
    deque. ``t`` is the virtual-time instant for simulated schedules and
    the 0-based completion sequence number on real backends (wall-clock
    instants live on the tracer, not here, so stats stay serializable)."""

    thief: int
    victim: int
    task: int
    t: float = 0.0

    def to_dict(self) -> dict:
        return {"thief": self.thief, "victim": self.victim,
                "task": self.task, "t": self.t}


@dataclass(frozen=True)
class SchedStats:
    """What one scheduled map did: strategy, movement, queue shapes.

    ``tasks_moved`` counts tasks executed by a worker other than the one
    the initial block partition assigned (for stealing that equals the
    steal count; LPT reports how many tasks its cost ordering displaced
    from their block home). ``initial_depths`` is the per-worker deque
    depth before execution — the queue-depth gauges' source.
    """

    strategy: str
    n_tasks: int
    workers: int
    steals: int = 0
    tasks_moved: int = 0
    initial_depths: tuple[int, ...] = ()
    events: tuple[StealEvent, ...] = ()

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "n_tasks": self.n_tasks,
            "workers": self.workers,
            "steals": self.steals,
            "tasks_moved": self.tasks_moved,
            "initial_depths": list(self.initial_depths),
            "events": [e.to_dict() for e in self.events],
        }

    def ledger_extra(self) -> dict:
        """The compact form the run ledger records (no per-event detail)."""
        return {"strategy": self.strategy, "steals": self.steals,
                "tasks_moved": self.tasks_moved}

    @classmethod
    def combine(cls, parts: Sequence["SchedStats"]) -> "SchedStats":
        """Fold the per-round stats of a retrying resilient map into one
        record (first round's queue shape, summed movement)."""
        if not parts:
            return cls(strategy="static", n_tasks=0, workers=1)
        head = parts[0]
        return cls(
            strategy=head.strategy,
            n_tasks=head.n_tasks,
            workers=head.workers,
            steals=sum(p.steals for p in parts),
            tasks_moved=sum(p.tasks_moved for p in parts),
            initial_depths=head.initial_depths,
            events=tuple(e for p in parts for e in p.events),
        )


def _workers_of(backend: Any) -> int:
    return int(getattr(backend, "max_workers", 1) or 1)


def _block_owner_table(n: int, workers: int) -> list[int]:
    """Task index → block-partition home worker (the static assignment)."""
    owners: list[int] = []
    for w, size in enumerate(block_sizes(n, workers)):
        owners.extend([w] * size)
    return owners


def _block_queues(depths: Sequence[int]) -> list[deque[int]]:
    """One deque of task indices per worker, filled by the block partition."""
    queues: list[deque[int]] = []
    start = 0
    for size in depths:
        queues.append(deque(range(start, start + size)))
        start += size
    return queues


class Scheduler:
    """Maps a worker over tasks through a backend, deciding the order and
    placement of dispatch — never the arithmetic. Returns the results in
    task order plus a :class:`SchedStats`."""

    name: str = "scheduler"

    def map(self, backend: Any, worker: Callable, tasks: Sequence, *,
            costs: Optional[Sequence[float]] = None,
            chunksize: Any = None) -> tuple[list, SchedStats]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}()"


class StaticChunkScheduler(Scheduler):
    """The incumbent: one chunked ``backend.map`` in task order.

    Delegates verbatim — byte-for-byte the pre-scheduler execution path,
    including chunking, instrumentation and the autotuner's chunk choices.
    """

    name = "static"

    def map(self, backend: Any, worker: Callable, tasks: Sequence, *,
            costs: Optional[Sequence[float]] = None,
            chunksize: Any = None) -> tuple[list, SchedStats]:
        results = backend.map(worker, tasks, chunksize=chunksize)
        n = len(results)
        workers = _workers_of(backend)
        return results, SchedStats(
            strategy=self.name, n_tasks=n, workers=workers,
            initial_depths=tuple(block_sizes(n, workers)) if n else (),
        )


class LPTScheduler(Scheduler):
    """Longest-processing-time list scheduling over cost estimates.

    Tasks are dispatched **one per message** (chunksize is ignored — a
    chunk would weld unequal tasks back together) in stable descending
    estimated-cost order; a work-conserving pool picks the next pending
    task whenever a worker frees, which realizes the classical LPT greedy
    assignment. Without estimates the order is the identity and this
    degrades to unchunked static dispatch. Results are reassembled by
    original task index, so prices are order-invariant bitwise.
    """

    name = "lpt"

    def order(self, n: int, costs: Optional[Sequence[float]]) -> list[int]:
        """Stable dispatch order: descending estimate, ties by index."""
        if costs is None:
            return list(range(n))
        if len(costs) != n:
            raise ValidationError(
                f"need one cost estimate per task ({n}), got {len(costs)}")
        return sorted(range(n), key=lambda i: (-float(costs[i]), i))

    def map(self, backend: Any, worker: Callable, tasks: Sequence, *,
            costs: Optional[Sequence[float]] = None,
            chunksize: Any = None) -> tuple[list, SchedStats]:
        tasks = list(tasks)
        n = len(tasks)
        order = self.order(n, costs)
        out = backend.map(worker, [tasks[i] for i in order], chunksize=1)
        results: list = [None] * n
        for pos, i in enumerate(order):
            results[i] = out[pos]
        workers = _workers_of(backend)
        owners = _block_owner_table(n, workers)
        moved = sum(1 for pos, i in enumerate(order)
                    if owners[pos] != owners[i]) if n else 0
        return results, SchedStats(
            strategy=self.name, n_tasks=n, workers=workers,
            tasks_moved=moved,
            initial_depths=tuple(block_sizes(n, workers)) if n else (),
        )


class WorkStealingScheduler(Scheduler):
    """Per-worker deques with seeded steal order over backend primitives.

    The coordinator keeps one logical deque per backend worker, filled by
    the block partition (so a run with no steals executes each task on
    its static home). Each worker slot holds **one task in flight**
    (dispatched via :meth:`~repro.parallel.backends.ExecutionBackend.submit`);
    when a slot's task completes the slot pops the front of its own deque
    — or, empty, steals from the *back* of the first non-empty victim in
    its seeded victim permutation. Completion is observed through
    ``backend.as_completed``, so the balance adapts to real durations
    without cost estimates.

    Results are reassembled by task index — bitwise identical to static —
    while the steal *schedule* on a real backend is a wall-clock race;
    use :func:`simulate_schedule` when the schedule itself must replay.
    """

    name = "steal"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"WorkStealingScheduler(seed={self.seed})"

    def victim_orders(self, workers: int) -> list[list[int]]:
        """Per-thief victim permutation, a pure function of the seed."""
        rng = np.random.Generator(np.random.Philox(self.seed))
        orders = []
        for w in range(workers):
            others = [v for v in range(workers) if v != w]
            orders.append([others[i]
                           for i in rng.permutation(len(others))])
        return orders

    def map(self, backend: Any, worker: Callable, tasks: Sequence, *,
            costs: Optional[Sequence[float]] = None,
            chunksize: Any = None) -> tuple[list, SchedStats]:
        tasks = list(tasks)
        n = len(tasks)
        workers = _workers_of(backend)
        depths = tuple(block_sizes(n, workers)) if n else ()
        if n == 0:
            return [], SchedStats(strategy=self.name, n_tasks=0,
                                  workers=workers)

        tracer = getattr(backend, "tracer", None)
        metrics = getattr(backend, "metrics", None)
        instrument = tracer is not None or metrics is not None
        hist = (metrics.histogram("task_latency", backend=backend.name)
                if metrics is not None else None)
        if metrics is not None:
            for w, depth in enumerate(depths):
                metrics.gauge("sched.queue_depth", worker=w).set(depth)

        queues = _block_queues(depths)
        victims = self.victim_orders(workers)
        events: list[StealEvent] = []
        seq = 0

        def next_task(slot: int) -> Optional[int]:
            nonlocal seq
            if queues[slot]:
                return queues[slot].popleft()
            for v in victims[slot]:
                if queues[v]:
                    task = queues[v].pop()
                    events.append(StealEvent(thief=slot, victim=v,
                                             task=task, t=float(seq)))
                    if tracer is not None:
                        tracer.instant("steal", thief=slot, victim=v,
                                       rank_task=task)
                    if metrics is not None:
                        metrics.gauge("sched.queue_depth",
                                      worker=v).set(len(queues[v]))
                    return task
            return None

        def submit(slot: int, idx: int) -> Any:
            if instrument:
                return backend.submit(_TimedCall(worker), (idx, tasks[idx]))
            return backend.submit(worker, tasks[idx])

        results: list = [None] * n
        meta: dict[int, tuple[int, int]] = {}   # id(handle) -> (slot, task)
        active: list = []
        for slot in range(workers):
            idx = next_task(slot)
            if idx is None:
                continue
            h = submit(slot, idx)
            meta[id(h)] = (slot, idx)
            active.append(h)

        while active:
            h = next(iter(backend.as_completed(active)))
            active.remove(h)
            slot, idx = meta.pop(id(h))
            out = h.result()
            if instrument:
                value, _, t0, t1, _, _ = out
                results[idx] = value
                if tracer is not None:
                    tracer.add_span("task", t0, t1, track=f"worker{slot}",
                                    rank_task=idx)
                if hist is not None:
                    hist.observe(t1 - t0)
            else:
                results[idx] = out
            seq += 1
            nxt = next_task(slot)
            if nxt is not None:
                h2 = submit(slot, nxt)
                meta[id(h2)] = (slot, nxt)
                active.append(h2)

        if metrics is not None:
            if events:
                metrics.counter("sched.steals").inc(len(events))
                metrics.counter("sched.tasks_moved").inc(len(events))
            for w in range(workers):
                metrics.gauge("sched.queue_depth", worker=w).set(0)
        return results, SchedStats(
            strategy=self.name, n_tasks=n, workers=workers,
            steals=len(events), tasks_moved=len(events),
            initial_depths=depths, events=tuple(events),
        )


def resolve_scheduler(value: Any) -> Scheduler:
    """Accept a :class:`Scheduler`, a strategy name (``static`` | ``lpt`` |
    ``steal``), or ``None`` (static)."""
    if value is None:
        return StaticChunkScheduler()
    if isinstance(value, Scheduler):
        return value
    if not isinstance(value, str):
        raise ValidationError(f"cannot interpret {value!r} as a Scheduler")
    if value == "static":
        return StaticChunkScheduler()
    if value == "lpt":
        return LPTScheduler()
    if value == "steal":
        return WorkStealingScheduler()
    raise ValidationError(
        f"unknown scheduler {value!r}; expected one of {SCHEDULER_NAMES}")


# ---------------------------------------------------------------------------
# Virtual-time execution: deterministic schedules for curves and tests.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VirtualSchedule:
    """A deterministic schedule: pure function of its inputs.

    ``assignments[i] = (task, worker, start, end)`` in completion order;
    ``makespan`` is the last finish time. ``stats`` carries the same
    movement record real runs produce, with steal events stamped at their
    virtual instants — so the whole object is byte-reproducible and
    :meth:`digest` can gate on it.
    """

    strategy: str
    workers: int
    assignments: tuple[tuple[int, int, float, float], ...]
    makespan: float
    stats: SchedStats

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "workers": self.workers,
            "assignments": [list(a) for a in self.assignments],
            "makespan": self.makespan,
            "stats": self.stats.to_dict(),
        }

    def digest(self) -> str:
        """Canonical digest of the whole schedule (byte-reproducible)."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def simulate_schedule(costs: Iterable[float], workers: int, *,
                      strategy: str = "steal", seed: int = 0,
                      estimates: Optional[Sequence[float]] = None,
                      ) -> VirtualSchedule:
    """Run a task set on ``workers`` virtual clocks under a strategy.

    ``costs[i]`` is task i's true duration in seconds on any worker.
    ``estimates`` feeds LPT's *ordering* only (default: the true costs),
    which is how benchmark F19 shows stealing beating LPT when the
    estimates are stale or uniform: LPT places by belief, stealing
    balances by observation. A steal itself is free.

    Deterministic in every argument; ties break by worker index. The
    greedy, work-conserving strategies satisfy
    ``makespan ≤ sum/m + max ≤ 2·OPT`` — the property the hypothesis
    suite pins.
    """
    costs = [float(c) for c in costs]
    for c in costs:
        check_non_negative("cost", c)
    check_positive_int("workers", workers)
    n = len(costs)
    depths = tuple(block_sizes(n, workers)) if n else ()

    if strategy not in SCHEDULER_NAMES:
        raise ValidationError(
            f"unknown scheduler {strategy!r}; expected one of "
            f"{SCHEDULER_NAMES}")

    # One placement loop: the earliest-free worker (ties by index) takes
    # its next task. Static and steal draw from the worker's own block —
    # an empty deque steals from the back of the first non-empty victim in
    # the seeded order, or retires — and a worker with an empty block
    # never starts; LPT draws every worker from one deque in estimate order.
    if strategy == "lpt":
        shared = deque(LPTScheduler().order(
            n, costs if estimates is None else estimates))
        queues = [shared] * workers
    else:
        queues = _block_queues(depths)
    victims = (WorkStealingScheduler(seed=seed).victim_orders(workers)
               if strategy == "steal" else [[]] * workers)
    heap = [(0.0, w) for w, queue in enumerate(queues)
            if queue or strategy == "lpt"]
    assignments: list[tuple[int, int, float, float]] = []
    events: list[StealEvent] = []
    while heap:
        t, w = heapq.heappop(heap)
        if queues[w]:
            idx = queues[w].popleft()
        else:
            victim = next((v for v in victims[w] if queues[v]), None)
            if victim is None:
                continue   # nothing left to take: the worker retires
            idx = queues[victim].pop()
            events.append(StealEvent(thief=w, victim=victim, task=idx, t=t))
        assignments.append((idx, w, t, t + costs[idx]))
        heapq.heappush(heap, (t + costs[idx], w))
    owners = _block_owner_table(n, workers)
    moved = sum(1 for idx, w, _, _ in assignments if owners[idx] != w)
    assignments.sort(key=(lambda a: (a[1], a[0])) if strategy == "static"
                     else (lambda a: (a[3], a[1], a[0])))

    makespan = max((a[3] for a in assignments), default=0.0)
    stats = SchedStats(
        strategy=strategy, n_tasks=n, workers=workers,
        steals=len(events), tasks_moved=moved,
        initial_depths=depths, events=tuple(events),
    )
    return VirtualSchedule(strategy=strategy, workers=workers,
                           assignments=tuple(assignments),
                           makespan=makespan, stats=stats)

"""GatewayCore: the deterministic shard-queue state machine.

Everything the gateway *decides* lives here — routing, admission,
lane-ordered dispatch, expiry, service-time estimation, the decision
log — with time injected from outside. The asyncio front-end
(:mod:`repro.gateway.gateway`) drives it with the wall clock; the
virtual-time executor (:mod:`repro.gateway.simulate`) drives it with
simulated instants. Same code path, which is what makes the overload
behavior unit-testable without wall-clock flakiness: the acceptance
tier replays a seeded 2x-overload schedule through this exact state
machine on a virtual clock.

Per shard the core keeps one bounded FIFO deque per priority lane plus
a ``busy_until`` estimate and an EWMA of observed service times. The
work-ahead estimate an arrival is judged against is::

    max(busy_until - now, 0) + ewma * (queued at its priority or higher)

Admission sheds ``queue-full`` / ``deadline`` arrivals; dispatch sheds
``expired`` entries whose deadline can no longer be met (they were
feasible at admission but got overtaken by higher-priority traffic).
Both append to the decision log and bump the metrics registry
(``gateway.admitted`` / ``gateway.shed{reason=...}`` counters,
``gateway.queue_depth{shard=...}`` gauges,
``gateway.latency_s{lane=...}`` histograms).

The decision log keeps a bounded tail: the newest ``_RETAIN`` decisions,
indexed by their absolute position in the stream, so a long-running
gateway's memory does not grow with the quotes it has served. A
consumer that needs every decision (the virtual-time simulator, for its
digest) copies each event's new entries out as they are appended.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

from repro.gateway.admission import (LANES, AdmissionController, Decision,
                                     GatewayRequest, lane_priority)
from repro.gateway.router import shard_index
from repro.serve.batching import request_key
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["Pending", "GatewayCore"]

#: Decisions the log retains (~148 B each, so ~4.7 MB at most). Covers
#: any one read a front-end or harness makes of the entries appended
#: since it last looked, e.g. a 5 000-quote round's 10 000 decisions.
_RETAIN = 1 << 15

#: Weight of the newest observed service time in a shard's EWMA estimate.
_EWMA_ALPHA = 0.2


class _DecisionLog:
    """Append-only decision stream that keeps only its newest entries.

    ``len()`` counts every decision ever appended, and ``log[i]`` /
    ``log[a:b]`` use those absolute positions (negative ones count from
    the newest), so ``log[len_before:]`` reads what happened since a
    mark. Iteration walks the retained tail. Asking for a dropped entry
    raises :class:`IndexError` rather than returning a short answer.
    """

    __slots__ = ("_tail", "_appended")

    def __init__(self):
        self._tail: deque[Decision] = deque(maxlen=_RETAIN)
        self._appended = 0

    def append(self, decision: Decision) -> None:
        self._appended += 1
        self._tail.append(decision)

    def __len__(self) -> int:
        return self._appended

    def __iter__(self):
        return iter(self._tail)

    def __getitem__(self, index):
        n = self._appended
        dropped = n - len(self._tail)
        if isinstance(index, slice):
            start, stop, step = index.indices(n)
            if step != 1:
                raise ValueError("decision log slices take no step")
            if start >= stop:
                return []
            if start < dropped:
                raise IndexError(f"decision {start} is no longer retained "
                                 f"(retained: {dropped}..{n - 1})")
            # Walk from the newest end: the usual read is a short recent run.
            out = list(islice(reversed(self._tail), n - start))
            out.reverse()
            return out[:stop - start]
        i = index + n if index < 0 else index
        if not dropped <= i < n:
            raise IndexError(f"decision {index} is not retained "
                             f"(retained: {dropped}..{n - 1})")
        return self._tail[i - dropped]


@dataclass(frozen=True)
class Pending:
    """An admitted request waiting for (or in) service on its shard."""

    seq: int
    greq: GatewayRequest
    key: str
    shard: int
    arrival: float
    deadline_at: float


class _ShardState:
    """One shard's queues and service-time estimate."""

    __slots__ = ("queues", "busy_until", "ewma", "observed", "max_depth")

    def __init__(self, service_hint_s: float):
        self.queues: dict[str, deque[Pending]] = {
            lane: deque() for lane in LANES}
        self.busy_until = 0.0
        self.ewma = service_hint_s
        self.observed = 0
        self.max_depth = 0

    def depth(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def work_ahead(self, lane: str, now: float) -> float:
        """Estimated seconds a ``lane`` arrival waits before service."""
        ahead = sum(len(self.queues[other]) for other in LANES
                    if lane_priority(other) <= lane_priority(lane))
        return max(self.busy_until - now, 0.0) + self.ewma * ahead


class GatewayCore:
    """Routing + admission + lane-ordered dispatch over N shards.

    Parameters
    ----------
    n_shards : shard count; routing is ``shard_index(key, n_shards)``.
    max_queue : per-shard, per-lane queue bound (see
        :class:`AdmissionController`).
    service_hint_s : initial per-request service-time estimate, used
        until the EWMA (weight 0.2) has observations.
    metrics : optional :class:`~repro.obs.MetricsRegistry`.
    """

    def __init__(self, n_shards: int, *, max_queue: int = 64,
                 service_hint_s: float = 1e-3, metrics=None):
        self.n_shards = check_positive_int("n_shards", n_shards)
        check_positive("service_hint_s", service_hint_s)
        self.admission = AdmissionController(max_queue=max_queue)
        self.metrics = metrics
        self._shards = [_ShardState(service_hint_s) for _ in range(n_shards)]
        self._seq = 0
        self.decisions = _DecisionLog()
        self.admitted = 0
        self.completed = 0
        self.shed: dict[str, int] = {}

    # -- introspection --------------------------------------------------

    def queue_depth(self, shard: int) -> int:
        return self._shards[shard].depth()

    def max_depth_seen(self, shard: int) -> int:
        return self._shards[shard].max_depth

    def service_estimate(self, shard: int) -> float:
        return self._shards[shard].ewma

    # -- the state machine ---------------------------------------------

    def offer(self, greq: GatewayRequest,
              now: float) -> tuple[Pending | None, Decision]:
        """Route + admit one arrival; enqueue it or shed it.

        Returns ``(pending, decision)`` — ``pending`` is ``None`` when
        the request was shed (the decision carries the reason).
        """
        key = request_key(greq.request)
        shard = shard_index(key, self.n_shards)
        state = self._shards[shard]
        seq = self._seq
        self._seq += 1
        deadline_at = now + greq.deadline_s
        reason = self.admission.decide(
            lane_depth=len(state.queues[greq.lane]),
            work_ahead_s=state.work_ahead(greq.lane, now),
            service_s=state.ewma, now=now, deadline_at=deadline_at)
        if reason:
            return None, self._shed(seq, now, shard, greq.lane, reason)
        pending = Pending(seq=seq, greq=greq, key=key, shard=shard,
                          arrival=now, deadline_at=deadline_at)
        state.queues[greq.lane].append(pending)
        state.max_depth = max(state.max_depth, state.depth())
        self.admitted += 1
        decision = Decision(seq=seq, t=now, shard=shard, lane=greq.lane,
                            action="admit")
        self.decisions.append(decision)
        if self.metrics is not None:
            self.metrics.counter("gateway.admitted").inc()
            self.metrics.gauge("gateway.queue_depth",
                               shard=shard).set(state.depth())
        return pending, decision

    def next_request(self, shard: int, now: float) -> Pending | None:
        """Pop the next dispatchable request (lane order), shedding
        entries that expired while queued. ``None`` when the shard's
        queues are drained."""
        state = self._shards[shard]
        for lane in LANES:
            queue = state.queues[lane]
            while queue:
                pending = queue.popleft()
                if now + state.ewma > pending.deadline_at:
                    self._shed(pending.seq, now, shard, lane, "expired")
                    continue
                if self.metrics is not None:
                    self.metrics.gauge("gateway.queue_depth",
                                       shard=shard).set(state.depth())
                return pending
        return None

    def start(self, shard: int, pending: Pending, now: float,
              service_s: float) -> None:
        """Mark the shard busy until ``now + service_s`` (the executor's
        estimate — exact in virtual time, EWMA-based on the wall clock)."""
        self._shards[shard].busy_until = now + service_s

    def complete(self, shard: int, pending: Pending, now: float,
                 service_s: float) -> Decision:
        """Record one finished request and fold its service time into
        the shard's EWMA estimate."""
        state = self._shards[shard]
        state.busy_until = now
        if state.observed == 0:
            state.ewma = service_s
        else:
            state.ewma += _EWMA_ALPHA * (service_s - state.ewma)
        state.observed += 1
        latency = now - pending.arrival
        late = now > pending.deadline_at
        self.completed += 1
        decision = Decision(seq=pending.seq, t=now, shard=shard,
                            lane=pending.greq.lane, action="done",
                            reason="late" if late else "",
                            latency_s=latency)
        self.decisions.append(decision)
        if self.metrics is not None:
            self.metrics.counter("gateway.completed").inc()
            if late:
                self.metrics.counter("gateway.late").inc()
            self.metrics.histogram("gateway.latency_s",
                                   lane=pending.greq.lane).observe(latency)
            self.metrics.histogram("gateway.wait_s").observe(
                max(latency - service_s, 0.0))
        return decision

    def fail(self, shard: int, pending: Pending, now: float) -> Decision:
        """Record a request whose pricing raised (terminal ``done/error``).
        The shard is free again; ``completed`` and the service estimate
        count successes only."""
        self._shards[shard].busy_until = now
        decision = Decision(seq=pending.seq, t=now, shard=shard,
                            lane=pending.greq.lane, action="done",
                            reason="error", latency_s=now - pending.arrival)
        self.decisions.append(decision)
        return decision

    def shed_expired(self, pending: Pending, now: float) -> Decision:
        """Executor-side expiry: the dispatcher (which may know the exact
        service cost, as the virtual-time simulator does) determined a
        popped request can no longer meet its deadline."""
        return self._shed(pending.seq, now, pending.shard,
                          pending.greq.lane, "expired")

    # -- internals ------------------------------------------------------

    def _shed(self, seq: int, now: float, shard: int, lane: str,
              reason: str) -> Decision:
        self.shed[reason] = self.shed.get(reason, 0) + 1
        decision = Decision(seq=seq, t=now, shard=shard, lane=lane,
                            action="shed", reason=reason)
        self.decisions.append(decision)
        if self.metrics is not None:
            self.metrics.counter("gateway.shed", reason=reason).inc()
        return decision

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

"""Virtual-time gateway execution: deterministic load/overload runs.

The INRIA grid papers' coordinator/worker shape becomes testable here:
the whole gateway — routing, lanes, admission, expiry, per-shard caches
— runs against a **simulated clock** driven by an event heap, with
per-request service times from a pure :class:`~repro.gateway.loadgen.
CostModel`. No sleeping, no thread scheduling, no wall-clock noise: a
seeded schedule replays to the same virtual timeline, the same decision
log, and (in ``priced=True`` mode) the same price bits, every run, on
any machine. That is what lets the overload acceptance tier assert
exact queue bounds and goodput instead of flaky timing margins, and
what the ``gateway`` determinism check replays bitwise.

Execution model: one service slot per shard (the stateless-worker
shape), FIFO within a lane, lanes drained in priority order by
:class:`~repro.gateway.core.GatewayCore`. At dispatch the simulator
knows the *exact* service cost, so a request that can no longer meet
its deadline is shed as ``expired`` rather than serviced uselessly —
in virtual mode every completed request therefore beat its deadline,
and goodput degrades to capacity under overload instead of collapsing.

``priced=True`` additionally routes each cache miss through the real
:func:`~repro.serve.service.price_request` worker (serial shard
execution), so the run yields a bitwise-comparable price stream while
virtual time still accounts the cost model's seconds.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from repro.gateway.admission import Decision, GatewayRequest, decision_digest
from repro.gateway.core import GatewayCore, Pending
from repro.gateway.loadgen import CostModel, LoadgenConfig, request_stream
from repro.obs.ledger import (RunRecord, active_ledger, config_digest,
                              git_sha, new_run_id)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.serve.cache import PriceCache
from repro.utils.formatting import Table
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["GatewayRunResult", "run_schedule", "run_closed_loop"]

#: Cache sentinel stored for un-priced virtual runs (hit/miss structure
#: without spending real compute on path generation).
_PRICED_OUT = object()


@dataclass
class GatewayRunResult:
    """Everything one gateway run measured, deterministic fields first."""

    n_shards: int
    duration_s: float
    offered: int = 0
    admitted: int = 0
    completed: int = 0
    shed: dict[str, int] = field(default_factory=dict)
    sim_end: float = 0.0
    wall_s: float = 0.0
    latency: dict[str, Histogram] = field(default_factory=dict)
    max_depths: list[int] = field(default_factory=list)
    cache_hits: list[int] = field(default_factory=list)
    cache_misses: list[int] = field(default_factory=list)
    decisions: list[Decision] = field(default_factory=list)
    prices: list[tuple[int, object]] = field(default_factory=list)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def shed_rate(self) -> float:
        return self.shed_total / self.offered if self.offered else 0.0

    @property
    def goodput(self) -> float:
        """Deadline-beating completions per offered second."""
        return self.completed / self.duration_s

    @property
    def overall_latency(self) -> Histogram:
        merged = Histogram()
        for hist in self.latency.values():
            merged.merge(hist)
        return merged

    def hit_rate(self, shard: int) -> float:
        total = self.cache_hits[shard] + self.cache_misses[shard]
        return self.cache_hits[shard] / total if total else 0.0

    def decision_log_digest(self) -> str:
        return decision_digest(self.decisions)

    def price_stream_digest(self) -> str:
        """SHA-256 over the seq-ordered price/stderr bit patterns
        (``priced=True`` runs only)."""
        import hashlib

        from repro.verify.determinism import float_bits

        parts = [f"{seq}:{float_bits(q.price)}:{float_bits(q.stderr)}"
                 for seq, q in sorted(self.prices)]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]

    def lane_table(self, *, title: str = "gateway run") -> Table:
        table = Table(["lane", "done", "p50 [ms]", "p99 [ms]", "p999 [ms]",
                       "max [ms]"],
                      title=title, floatfmt=".4g")
        for lane, hist in sorted(self.latency.items()):
            table.add_row([lane, hist.count, hist.quantile(0.5) * 1e3,
                           hist.quantile(0.99) * 1e3,
                           hist.quantile(0.999) * 1e3,
                           (hist.max if hist.count else 0.0) * 1e3])
        overall = self.overall_latency
        table.add_row(["(all)", overall.count, overall.quantile(0.5) * 1e3,
                       overall.quantile(0.99) * 1e3,
                       overall.quantile(0.999) * 1e3,
                       (overall.max if overall.count else 0.0) * 1e3])
        return table

    def to_record(self, config: dict) -> RunRecord:
        overall = self.overall_latency
        return RunRecord(
            run_id=new_run_id(), kind="gateway", engine="gateway",
            config=config_digest(config), backend="sim",
            workers=self.n_shards, p=self.n_shards,
            stages={"drive": self.wall_s}, wall_s=self.wall_s,
            sim_s=self.sim_end,
            extra={"offered": self.offered, "admitted": self.admitted,
                   "completed": self.completed, "shed": self.shed_total,
                   "goodput": self.goodput,
                   "shed_rate": self.shed_rate,
                   "p99_ms": overall.quantile(0.99) * 1e3},
            git=git_sha())


class _Driver:
    """Shared event-heap machinery for open- and closed-loop runs."""

    def __init__(self, *, n_shards: int, cost: CostModel, max_queue: int,
                 priced: bool, cache_capacity: int, service_hint_s: float,
                 headroom: float, ewma_alpha: float,
                 metrics: MetricsRegistry | None, duration_s: float):
        self.core = GatewayCore(n_shards, max_queue=max_queue,
                                service_hint_s=service_hint_s,
                                ewma_alpha=ewma_alpha, headroom=headroom,
                                metrics=metrics)
        self.cost = cost
        self.priced = priced
        self.caches = [PriceCache(cache_capacity, metrics=metrics,
                                  labels={"shard": str(i)})
                       for i in range(n_shards)]
        self.result = GatewayRunResult(n_shards=n_shards,
                                       duration_s=duration_s)
        self.busy = [False] * n_shards
        self.heap: list[tuple[float, int, str, object]] = []
        self._order = 0
        self.on_settled = None   # closed-loop hook: seq settled at time t
        self._client_of: dict[int, int] = {}

    def push(self, t: float, kind: str, payload: object) -> None:
        heapq.heappush(self.heap, (t, self._order, kind, payload))
        self._order += 1

    def arrive(self, greq: GatewayRequest, t: float,
               client: int | None = None) -> None:
        self.result.offered += 1
        pending, decision = self.core.offer(greq, t)
        if client is not None:
            self._client_of[decision.seq] = client
        if pending is None:
            self._settled(decision.seq, t)
        elif not self.busy[pending.shard]:
            self.dispatch(pending.shard, t)

    def dispatch(self, shard: int, now: float) -> None:
        """Start the next feasible queued request on an idle shard."""
        while True:
            pending = self.core.next_request(shard, now)
            if pending is None:
                self.busy[shard] = False
                return
            cache = self.caches[shard]
            cached = cache.get(pending.key)
            service = self.cost.service_s(pending.greq.request,
                                          cached is not None)
            if now + service > pending.deadline_at:
                # Exact-knowledge expiry: don't burn capacity on a
                # request that cannot make it.
                self.core.shed_expired(pending, now)
                self._settled(pending.seq, now)
                continue
            if cached is None:
                if self.priced:
                    from repro.serve.service import price_request

                    cached = price_request(pending.greq.request)
                else:
                    cached = _PRICED_OUT
                cache.put(pending.key, cached)
            if self.priced:
                self.result.prices.append((pending.seq, cached))
            self.busy[shard] = True
            self.core.start(shard, pending, now, service)
            self.push(now + service, "finish", (shard, pending, service))
            return

    def finish(self, shard: int, pending: Pending, service: float,
               now: float) -> None:
        self.core.complete(shard, pending, now, service)
        self.result.completed += 1
        lane = pending.greq.lane
        hist = self.result.latency.setdefault(lane, Histogram())
        hist.observe(now - pending.arrival)
        self.result.sim_end = now
        self._settled(pending.seq, now)
        self.dispatch(shard, now)

    def drain(self) -> GatewayRunResult:
        # The core retains only a tail of its log; the run reports (and
        # digests) all of it, so copy each event's new decisions out.
        res = self.result
        log = self.core.decisions
        while self.heap:
            mark = len(log)
            t, _, kind, payload = heapq.heappop(self.heap)
            if kind == "arrive":
                greq, client = payload
                self.arrive(greq, t, client)
            else:
                shard, pending, service = payload
                self.finish(shard, pending, service, t)
            res.decisions.extend(log[mark:])
        res.admitted = self.core.admitted
        res.shed = dict(self.core.shed)
        res.max_depths = [self.core.max_depth_seen(s)
                          for s in range(res.n_shards)]
        res.cache_hits = [c.hits for c in self.caches]
        res.cache_misses = [c.misses for c in self.caches]
        return res

    def _settled(self, seq: int, now: float) -> None:
        if self.on_settled is not None:
            client = self._client_of.pop(seq, None)
            if client is not None:
                self.on_settled(client, now)


def _finalize(driver: _Driver, t0: float, config: dict,
              ledger) -> GatewayRunResult:
    result = driver.drain()
    result.wall_s = time.perf_counter() - t0
    book = ledger if ledger is not None else active_ledger()
    if book is not None:
        book.append(result.to_record(config))
    return result


def run_schedule(schedule: list[tuple[float, GatewayRequest]], *,
                 n_shards: int, cost: CostModel, duration_s: float,
                 max_queue: int = 64, priced: bool = False,
                 cache_capacity: int = 4096,
                 service_hint_s: float | None = None,
                 headroom: float = 1.0, ewma_alpha: float = 0.2,
                 metrics: MetricsRegistry | None = None,
                 ledger=None) -> GatewayRunResult:
    """Replay an open-loop arrival schedule on the virtual clock.

    ``schedule`` is ``[(arrival_s, GatewayRequest), ...]`` (what
    :func:`~repro.gateway.loadgen.open_loop_schedule` builds);
    ``duration_s`` is the offered window the goodput denominator uses.
    ``service_hint_s`` seeds the admission estimate before the EWMA has
    observations — defaults to the cost model's flat base cost.
    """
    check_positive_int("n_shards", n_shards)
    check_positive("duration_s", duration_s)
    t0 = time.perf_counter()
    hint = service_hint_s if service_hint_s is not None else cost.base_s
    driver = _Driver(n_shards=n_shards, cost=cost, max_queue=max_queue,
                     priced=priced, cache_capacity=cache_capacity,
                     service_hint_s=hint, headroom=headroom,
                     ewma_alpha=ewma_alpha, metrics=metrics,
                     duration_s=duration_s)
    for t, greq in schedule:
        driver.push(t, "arrive", (greq, None))
    config = {"mode": "open", "n_shards": n_shards, "max_queue": max_queue,
              "priced": priced, "duration_s": duration_s,
              "requests": len(schedule)}
    return _finalize(driver, t0, config, ledger)


def run_closed_loop(cfg: LoadgenConfig, *, n_shards: int, cost: CostModel,
                    n_clients: int, think_s: float,
                    max_queue: int = 64, priced: bool = False,
                    cache_capacity: int = 4096,
                    service_hint_s: float | None = None,
                    headroom: float = 1.0, ewma_alpha: float = 0.2,
                    metrics: MetricsRegistry | None = None,
                    ledger=None) -> GatewayRunResult:
    """Closed-loop run: ``n_clients`` issue a request, wait for its
    answer (or shed), think ``think_s`` virtual seconds, repeat — until
    ``cfg.duration_s``. Self-throttling by construction; offered load
    tracks what the gateway actually absorbs."""
    check_positive_int("n_shards", n_shards)
    check_positive_int("n_clients", n_clients)
    check_positive("think_s", think_s)
    t0 = time.perf_counter()
    hint = service_hint_s if service_hint_s is not None else cost.base_s
    driver = _Driver(n_shards=n_shards, cost=cost, max_queue=max_queue,
                     priced=priced, cache_capacity=cache_capacity,
                     service_hint_s=hint, headroom=headroom,
                     ewma_alpha=ewma_alpha, metrics=metrics,
                     duration_s=cfg.duration_s)
    stream = request_stream(cfg)

    def issue(client: int, t: float) -> None:
        if t < cfg.duration_s:
            driver.push(t, "arrive", (next(stream), client))

    def settled(client: int, now: float) -> None:
        issue(client, now + think_s)

    driver.on_settled = settled
    # Stagger the first wave so clients do not arrive as one burst.
    for client in range(n_clients):
        issue(client, client * (think_s / max(n_clients, 1)))
    config = {"mode": "closed", "n_shards": n_shards,
              "max_queue": max_queue, "priced": priced,
              "duration_s": cfg.duration_s, "n_clients": n_clients,
              "think_s": think_s, "seed": cfg.seed}
    return _finalize(driver, t0, config, ledger)

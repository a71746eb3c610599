"""The five workloads: sizes, seeded input generation, one timed round,
the correctness gate and the per-layer accounting of each.

Every input is made here from ``--seed``; the program only ever sees the
generated requests. Sizes are constants (``SIZES``), not flags: a round
is a fixed amount of work, the run repeats whole rounds until
``--seconds`` have passed, and every exact count is reported per round,
so counts repeat bit-for-bit for one seed however long the run was.
``SMOKE_SIZES`` is the tiny variant the self-check tests use; its output
is stamped and refused by the comparer.

The sizes are smaller than the ones ISSUE 12 sketched (which gave 9-14 s
windows per workload): the driver makes 114 runs in 3420 s, so a run —
three set-ups, the timed window and the correctness gate — has to fit in
about 20 s.
"""

from __future__ import annotations

import os
import random
import statistics
from contextlib import ExitStack
from dataclasses import dataclass, field

from benchmarks.e2e import adapters as A
from benchmarks.e2e.spans import ROOT, SpanRecorder, closure, layer_self_times

__all__ = ["SIZES", "SMOKE_SIZES", "WORKLOAD_CLASSES", "Round", "percentile"]

clock = A.clock

SIZES = {
    "quote_cold": dict(shards=2, clients=2, max_queue=256, cache=512,
                       round_requests=150, contracts=48, n_paths=20_000,
                       lattice_steps=64, pde_grid=32, pde_steps=16,
                       deadline_s=10.0, warmup=6, trace_every=1),
    "quote_hot": dict(shards=2, clients=2, max_queue=256, cache=512,
                      round_requests=5000, working_set=256, contracts=48,
                      n_paths=1_000, lattice_steps=32, pde_grid=16,
                      pde_steps=8, deadline_s=10.0, trace_every=4),
    "book_batch": dict(workers=2, ladders=4, ladder_strikes=250,
                       lattice_ladders=1, lattice_strikes=128, singles=32,
                       n_paths=20_000, lattice_steps=64),
    "risk_sweep": dict(contracts=16, scenarios=64, n_paths=2_000,
                       max_batch=16),
    "scaling_mc": dict(workers=2, dim=4, n_paths=1_000_000, ranks=8,
                       warm_paths=50_000),
}

SMOKE_SIZES = {
    "quote_cold": dict(SIZES["quote_cold"], round_requests=20, contracts=4,
                       n_paths=500, lattice_steps=8, pde_grid=8, pde_steps=4),
    "quote_hot": dict(SIZES["quote_hot"], round_requests=100, working_set=10,
                      contracts=4, n_paths=500, lattice_steps=8, pde_grid=8,
                      pde_steps=4),
    "book_batch": dict(SIZES["book_batch"], ladders=2, ladder_strikes=10,
                       lattice_strikes=5, singles=2, n_paths=500,
                       lattice_steps=8),
    "risk_sweep": dict(SIZES["risk_sweep"], contracts=4, scenarios=25,
                       n_paths=200, max_batch=4),
    "scaling_mc": dict(SIZES["scaling_mc"], n_paths=20_000, warm_paths=2_000),
}

#: The correctness gate compares this share of replies with the serial
#: ``price_request`` reference, bit for bit.
SAMPLE_ONE_IN = 25

ENGINE_MIX = (("mc", 70), ("lattice", 20), ("pde", 10))
LANE_MIX = (("interactive", 30), ("standard", 50), ("bulk", 20))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(int(-(-q * len(ordered) // 100)), 1)
    return ordered[rank - 1]


def _spread(mix, n: int, rng: random.Random) -> list[str]:
    """``n`` labels in the exact proportions of ``mix``, shuffled."""
    out = []
    for label, share in mix:
        out.extend([label] * (n * share // 100))
    out.extend([mix[0][0]] * (n - len(out)))
    rng.shuffle(out)
    return out


def _sample(n: int, rng: random.Random) -> list[int]:
    """A seeded 1-in-``SAMPLE_ONE_IN`` sample of ``range(n)`` (at least one)."""
    return sorted(rng.sample(range(n), max(n // SAMPLE_ONE_IN, 1)))


@dataclass
class Round:
    """One fixed-size round of a workload."""

    units: float                 # work units completed
    wall: float                  # seconds the units took
    latencies: list              # reply latencies in seconds
    replies: object = None       # what the correctness gate looks at
    extra: dict = field(default_factory=dict)


class Workload:
    """Set-up, one round, the correctness gate and the layer accounting."""

    name = ""

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.z = sizes
        self.setup_parts: dict[str, float] = {}

    # the harness calls these -------------------------------------------
    def open(self, stack: ExitStack) -> None:
        raise NotImplementedError

    def round(self, index: int, rec: SpanRecorder | None = None) -> Round:
        raise NotImplementedError

    def verify(self, rounds: list[Round]) -> tuple[int, int]:
        """``(attempted, failed)`` over every reply of every round."""
        raise NotImplementedError

    def layer_metrics(self, rec, traced, untraced) -> dict:
        raise NotImplementedError

    def request_digest(self) -> list[str]:
        """Keys of the first round's requests: equal for equal seeds."""
        raise NotImplementedError

    # shared accounting -------------------------------------------------
    def _span_metrics(self, rec: SpanRecorder, traced, untraced) -> dict:
        spans = rec.closed()
        share, unattributed, wall = closure(spans)
        table = layer_self_times(spans)
        out = {f"self_share.{layer}": seconds / wall
               for layer, seconds in table.items() if layer != ROOT}
        out["closure_share"] = share
        out["unattributed_ms"] = 1e3 * unattributed / len(traced)
        plain = statistics.median(r.wall for r in untraced)
        out["obs.trace_overhead_share"] = (
            statistics.median(r.wall for r in traced) - plain) / plain
        return out

    @staticmethod
    def _serve_span_metrics(rec: SpanRecorder) -> tuple[float, float]:
        """Summed ``price_many`` wall, and the serve overhead per call:
        that wall minus the backend map inside it."""
        serve = maps = 0.0
        calls = 0
        for span in rec.closed():
            if span.layer == "serve" and span.name == "price_many":
                serve += span.duration
                calls += 1
            elif span.layer == "parallel" and span.name == "map":
                maps += span.duration
        return serve, (serve - maps) / calls

    @staticmethod
    def _serve_probes(requests) -> dict:
        get_s, put_s = A.probe_cache(requests)
        return {"serve.key_us": 1e6 * A.probe_key(requests),
                "serve.cache_get_us": 1e6 * get_s,
                "serve.cache_put_us": 1e6 * put_s}

    @staticmethod
    def _engine_probes(samples: dict) -> dict:
        """``samples``: engine family → one representative request."""
        out = {}
        # seconds per operation x 1e9 = ns per node / cell-step = us per kpath
        per_op = {"mc": "mc.kernel_us_per_kpath",
                  "lattice": "lattice.kernel_ns_per_node",
                  "pde": "pde.kernel_ns_per_cell_step"}
        for family, request in samples.items():
            probe = A.probe_engine(request)
            out[f"engine.pipeline_overhead_us.{family}"] = (
                1e6 * probe["overhead_s"])
            out[f"engine.floor_ratio.{family}"] = (
                probe["price_request_s"] / probe["kernel_s"])
            out[per_op[family]] = 1e9 * probe["kernel_s"] / probe["ops"]
        return out

    @staticmethod
    def _map_metrics(last_map: dict, workers: int) -> dict:
        """One traced ``backend.map``: where its wall went and what its
        tasks and results weigh on the pool's pipes."""
        per_worker: dict[int, float] = {}
        for pid, seconds in last_map["busy"]:
            per_worker[pid] = per_worker.get(pid, 0.0) + seconds
        busy = sum(per_worker.values())
        pickled = A.probe_pickle(last_map["tasks"], last_map["results"])
        return {
            "parallel.map_overhead_ms": 1e3 * (last_map["wall"]
                                               - busy / workers),
            "parallel.worker_busy_share": busy / (workers * last_map["wall"]),
            "parallel.straggler_ratio": max(per_worker.values())
            / (busy / workers),
            "parallel.task_pickle_bytes": pickled["task_bytes"],
            "parallel.result_pickle_bytes": pickled["result_bytes"],
            "parallel.pickle_ms": 1e3 * pickled["pickle_s"],
        }

    @staticmethod
    def _op_counts(requests) -> dict:
        names = {"mc": "mc.paths", "lattice": "lattice.nodes",
                 "pde": "pde.cell_steps"}
        out = dict.fromkeys(names.values(), 0)
        for request in requests:
            out[names[request.engine]] += A.op_count(request)
        return out


# ---------------------------------------------------------------------------
# quote_cold / quote_hot: the asyncio gateway, closed loop
# ---------------------------------------------------------------------------


class _Quote(Workload):
    def _request(self, kind: str, g: int):
        """Request number ``g`` of this seed: distinct key for distinct g."""
        z = self.z
        if kind == "mc":
            return A.mc_request(self.contracts[g % len(self.contracts)],
                                n_paths=z["n_paths"],
                                seed=self.seed * 1_000_003 + g)
        if kind == "lattice":
            return A.lattice_request(90.0 + 1e-3 * g + 1e-6 * self.seed,
                                     steps=z["lattice_steps"])
        return A.pde_request(4.0 + 1e-4 * g + 1e-7 * self.seed,
                             grid=z["pde_grid"], steps=z["pde_steps"])

    def _requests(self, first: int, n: int, tag: int) -> list:
        rng = random.Random(f"{self.name}-{self.seed}-{tag}")
        kinds = _spread(ENGINE_MIX, n, rng)
        return [self._request(kind, first + i) for i, kind in enumerate(kinds)]

    def _greqs(self, requests, tag: int) -> list:
        lanes = _spread(LANE_MIX, len(requests),
                        random.Random(f"lanes-{self.name}-{self.seed}-{tag}"))
        return [A.gateway_request(r, lane, self.z["deadline_s"])
                for r, lane in zip(requests, lanes)]

    def _open_gateway(self, stack: ExitStack) -> None:
        # One gateway process on one CPU, the way a GIL-bound server is
        # deployed (one worker per core). The loop and the executor
        # threads it starts inherit the affinity. On the 2-vCPU reference
        # VM every hand-off between them across vCPUs wakes a halted vCPU,
        # at a latency that belongs to the host's scheduler: unpinned,
        # quote_hot read 1.7x slower and +-13% run to run (+-2% pinned),
        # quote_cold 1.2x slower, and any background process preempts a
        # thread; that would drown the per-quote costs these workloads
        # exist to show.
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        stack.callback(os.sched_setaffinity, 0, allowed)
        z = self.z
        self.contracts = A.portfolio(z["contracts"], dim=4, seed=self.seed)
        self.gateway = stack.enter_context(A.Gateway(
            n_shards=z["shards"], max_queue=z["max_queue"],
            cache_capacity=z["cache"], clients=z["clients"]))
        self.trace = None
        self._tracks = 0

    def _drive(self, greqs, rec):
        """One closed-loop pass, traced when ``rec`` is given."""
        gateway = self.gateway
        if rec is None:
            return gateway.drive(greqs)
        if self.trace is None:
            self.trace = A.GatewayTrace(gateway, rec,
                                        every=self.z["trace_every"])
        self.trace.install(self._tracks)
        self._tracks += len(greqs)
        try:
            return gateway.drive(greqs)
        finally:
            self.trace.remove()

    def _round(self, requests, tag: int, rec) -> Round:
        greqs = self._greqs(requests, tag)
        caches = self.gateway.caches
        before = (sum(c.hits for c in caches), sum(c.misses for c in caches))
        decisions = len(self.gateway.core.decisions)
        counts = dict(self.trace.counts) if self.trace else A.new_counts()
        replies, latencies, wall = self._drive(greqs, rec)
        hits = sum(c.hits for c in caches) - before[0]
        misses = sum(c.misses for c in caches) - before[1]
        extra = {"hits": hits, "misses": misses,
                 "decisions": A.decision_counts(self.gateway.core, decisions)}
        if rec is not None:
            extra["serve_counts"] = A.serve_counts(
                {k: v - counts[k] for k, v in self.trace.counts.items()}, hits)
        return Round(units=len(requests), wall=wall, latencies=latencies,
                     replies=(requests, replies), extra=extra)

    def _gateway_metrics(self, rec, traced, requests) -> dict:
        z = self.z
        first = traced[0]
        offer_s, dispatch_s = A.probe_gateway_core(
            self._greqs(requests, 0), n_shards=z["shards"],
            max_queue=z["max_queue"])
        hops: dict[int, float] = {}
        waits = []
        for span in rec.closed():
            if span.name == "hop":
                hops[span.track] = hops.get(span.track, 0.0) + span.duration
            elif span.name == "queue_wait":
                waits.append(span.duration)
        loads = [0] * z["shards"]
        for request in first.replies[0]:
            loads[A.shard_of(request, z["shards"])] += 1
        _, overhead_s = self._serve_span_metrics(rec)
        lookups = first.extra["hits"] + first.extra["misses"]
        out = {
            "gateway.offer_us": 1e6 * offer_s,
            "gateway.dispatch_us": 1e6 * dispatch_s,
            "gateway.hop_us": 1e6 * statistics.median(hops.values()),
            "gateway.queue_wait_ms_p99": 1e3 * percentile(waits, 99),
            "gateway.offered": first.extra["decisions"]["offered"],
            "gateway.shed": first.extra["decisions"]["shed"],
            "gateway.late": first.extra["decisions"]["late"],
            "gateway.shard_imbalance": max(loads) / (sum(loads) / len(loads)),
            "serve.cache_hit_share": first.extra["hits"] / lookups,
            "serve.batch_overhead_us": 1e6 * overhead_s,
            **first.extra["serve_counts"],
        }
        out.update(self._serve_probes(requests))
        return out

    def _check_replies(self, rounds, reference_of) -> tuple[int, int]:
        """Every reply must be a finite quote; ``reference_of(request)``
        gives reference bits for the replies it knows, else ``None``."""
        attempted = failed = 0
        for rnd in rounds:
            requests, replies = rnd.replies
            for request, reply in zip(requests, replies):
                attempted += 1
                if not A.is_finite_quote(reply):
                    failed += 1
                    continue
                want = reference_of(request)
                if want is not None and A.quote_bits(reply) != want:
                    failed += 1
        return attempted, failed


class QuoteCold(_Quote):
    name = "quote_cold"

    def open(self, stack):
        self._open_gateway(stack)
        warm = self._requests(-self.z["warmup"], self.z["warmup"], -1)
        self.gateway.drive(self._greqs(warm, -1))

    def _round_requests(self, index: int) -> list:
        n = self.z["round_requests"]
        return self._requests(index * n, n, index)

    def round(self, index, rec=None):
        return self._round(self._round_requests(index), index, rec)

    def request_digest(self):
        return [A.key_of(r) for r in self._round_requests(0)]

    def verify(self, rounds):
        rng = random.Random(f"gate-{self.name}-{self.seed}")
        total = sum(len(r.replies[0]) for r in rounds)
        flat = [req for r in rounds for req in r.replies[0]]
        reference = {id(flat[i]): A.quote_bits(A.reference_quote(flat[i]))
                     for i in _sample(total, rng)}
        return self._check_replies(rounds, lambda r: reference.get(id(r)))

    def layer_metrics(self, rec, traced, untraced):
        requests = traced[0].replies[0]
        out = self._gateway_metrics(rec, traced, requests)
        samples = {}
        for request in requests:
            samples.setdefault(request.engine, request)
        out.update(self._engine_probes(samples))
        out.update(self._op_counts(requests))
        out.update(self._span_metrics(rec, traced, untraced))
        return out


class QuoteHot(_Quote):
    name = "quote_hot"

    def open(self, stack):
        self._open_gateway(stack)
        self.working_set = self._requests(0, self.z["working_set"], -1)
        replies, _, _ = self.gateway.drive(self._greqs(self.working_set, -1))
        if not all(map(A.is_finite_quote, replies)):
            raise RuntimeError("quote_hot: the set-up fill was shed or not finite")
        self.filled = dict(zip(map(id, self.working_set), replies))

    def _round_requests(self, index: int) -> list:
        rng = random.Random(f"draw-{self.seed}-{index}")
        return rng.choices(self.working_set, k=self.z["round_requests"])

    def round(self, index, rec=None):
        return self._round(self._round_requests(index), index, rec)

    def request_digest(self):
        return [A.key_of(r) for r in self._round_requests(0)[:64]]

    def verify(self, rounds):
        rng = random.Random(f"gate-{self.name}-{self.seed}")
        reference = {}
        for i in _sample(len(self.working_set), rng):
            request = self.working_set[i]
            reference[id(request)] = A.quote_bits(A.reference_quote(request))

        def reference_of(request):
            # A hit must return the set-up fill; sampled fills must match
            # the serial reference.
            return reference.get(id(request),
                                 A.quote_bits(self.filled[id(request)]))

        return self._check_replies(rounds, reference_of)

    def layer_metrics(self, rec, traced, untraced):
        out = self._gateway_metrics(rec, traced, self.working_set)
        out.update(self._span_metrics(rec, traced, untraced))
        return out


# ---------------------------------------------------------------------------
# book_batch: one batched price_many on a process pool
# ---------------------------------------------------------------------------


class BookBatch(Workload):
    name = "book_batch"

    def _book(self) -> list:
        z, seed = self.z, self.seed
        book = []
        for ladder in range(z["ladders"]):
            book.extend(A.mc_ladder(
                z["ladder_strikes"], vol=0.18 + 0.01 * ladder + 1e-5 * seed,
                n_paths=z["n_paths"], seed=seed * 100 + ladder))
        for ladder in range(z["lattice_ladders"]):
            book.extend(A.lattice_ladder(
                z["lattice_strikes"], shift=1e-3 * ladder + 1e-6 * seed,
                steps=z["lattice_steps"]))
        book.extend(A.mc_request(c, n_paths=z["n_paths"], seed=seed)
                    for c in A.portfolio(z["singles"], dim=4, seed=seed))
        random.Random(f"book-{seed}").shuffle(book)
        return book

    def open(self, stack):
        t0 = clock()
        self.backend = stack.enter_context(A.process_backend(self.z["workers"]))
        self.setup_parts["pool_start_s"] = clock() - t0
        self.book = self._book()
        # Two members of each task shape (a strip needs two), so the
        # workers do their lazy imports now and not in the first round.
        shapes: dict[tuple, int] = {}
        warm = []
        for request in self.book:
            shape = (request.engine, request.workload.model.dim)
            if shapes.setdefault(shape, 0) < 2:
                shapes[shape] += 1
                warm.append(request)
        with self._service() as service:
            service.price_many(warm)

    def _service(self):
        return A.open_service(self.backend, capacity=2 * len(self.book),
                              max_batch=len(self.book), batched=True)

    def round(self, index, rec=None):
        with self._service() as service:
            if rec is None:
                t0 = clock()
                quotes = service.price_many(self.book)
                wall = clock() - t0
                extra = {}
            else:
                trace = A.ServiceTrace(service, rec, track=lambda: index)
                traced = trace.install()
                try:
                    with rec.span(ROOT, "round", index) as root:
                        quotes = traced.price_many(self.book)
                finally:
                    trace.remove()
                wall = root.duration
                last = trace.backend.maps[-1]
                extra = {"map": last, "hits": service.cache.hits,
                         "misses": service.cache.misses,
                         "serve_counts": A.serve_counts(trace.counts,
                                                        service.cache.hits)}
            t0 = clock()
            replay = service.price_many(self.book)
            extra["hot_s"] = clock() - t0
            extra["replay_equal"] = all(a is b for a, b in zip(quotes, replay))
        return Round(units=len(self.book), wall=wall, latencies=[wall],
                     replies=quotes, extra=extra)

    def request_digest(self):
        return [A.key_of(r) for r in self.book[:64]]

    def verify(self, rounds):
        rng = random.Random(f"gate-{self.name}-{self.seed}")
        first = rounds[0].replies
        reference = {i: A.quote_bits(A.reference_quote(self.book[i]))
                     for i in _sample(len(self.book), rng)}
        attempted = failed = 0
        for rnd in rounds:
            for i, quote in enumerate(rnd.replies):
                attempted += 1
                ok = (A.is_finite_quote(quote) and rnd.extra["replay_equal"]
                      and A.quote_bits(quote) == A.quote_bits(first[i])
                      and reference.get(i, A.quote_bits(quote))
                      == A.quote_bits(quote))
                failed += not ok
        return attempted, failed

    def layer_metrics(self, rec, traced, untraced):
        first = traced[0]
        plan = A.probe_plan(self.book)
        strip_s, gain = A.probe_strip_kernel(plan["plan"])
        _, overhead_s = self._serve_span_metrics(rec)
        lookups = first.extra["hits"] + first.extra["misses"]
        out = {
            **first.extra["serve_counts"],
            "serve.cache_hit_share": first.extra["hits"] / lookups,
            "serve.batch_overhead_us": 1e6 * overhead_s / len(self.book),
            "serve.hot_replay_per_s": len(self.book) / statistics.median(
                r.extra["hot_s"] for r in traced + untraced),
            "batch.plan_ms": 1e3 * plan["plan_s"],
            "batch.strips": plan["strips"],
            "batch.fused_share": plan["fused_share"],
            "batch.strip_kernel_ms": 1e3 * strip_s,
            "batch.fusion_gain": gain,
            "parallel.pool_start_ms": 1e3 * self.setup_parts["pool_start_s"],
            **self._map_metrics(first.extra["map"], self.z["workers"]),
        }
        samples = {}
        for request in self.book:
            if request.workload.model.dim == 2:
                samples.setdefault(request.engine, request)
        out.update(self._serve_probes(self.book))
        out.update(self._engine_probes(samples))
        out.update(self._op_counts(self.book))
        out.update(self._span_metrics(rec, traced, untraced))
        return out


# ---------------------------------------------------------------------------
# risk_sweep: revalue_book cold then hot through one serial service
# ---------------------------------------------------------------------------


class RiskSweep(Workload):
    name = "risk_sweep"

    def open(self, stack):
        z = self.z
        self.book = A.risk_book(z["contracts"])
        self.scenarios = A.risk_scenarios(z["scenarios"], self.seed)
        with self._service() as service:
            self._revalue(service, self.scenarios[:2])

    def _service(self):
        z = self.z
        return A.open_service(
            None, capacity=4 * z["contracts"] * (z["scenarios"] + 1),
            max_batch=z["max_batch"])

    def _revalue(self, service, scenarios):
        return A.revalue(self.book, scenarios, service,
                         n_paths=self.z["n_paths"], seed=self.seed)

    def round(self, index, rec=None):
        with self._service() as service:
            if rec is None:
                t0 = clock()
                cold = self._revalue(service, self.scenarios)
                t1 = clock()
                hot = self._revalue(service, self.scenarios)
                t2 = clock()
                extra = {}
            else:
                trace = A.ServiceTrace(service, rec, track=lambda: index)
                traced = trace.install()
                try:
                    with rec.span(ROOT, "round", index):
                        with rec.span("risk", "revalue_book", index) as s_cold:
                            cold = self._revalue(traced, self.scenarios)
                        with rec.span("risk", "revalue_book", index) as s_hot:
                            hot = self._revalue(traced, self.scenarios)
                finally:
                    trace.remove()
                t0, t1, t2 = s_cold.t0, s_cold.t1, s_hot.t1
                extra = {"serve_counts": A.serve_counts(
                    trace.counts, cold.cache_hits + hot.cache_hits)}
        extra.update(cold_s=t1 - t0, hot_s=t2 - t1,
                     hits=(cold.cache_hits, hot.cache_hits),
                     misses=(cold.cache_misses, hot.cache_misses))
        return Round(units=2 * len(self.scenarios), wall=t2 - t0,
                     latencies=[t2 - t0], replies=(cold, hot), extra=extra)

    def request_digest(self):
        return [s.key for s in self.scenarios]

    def verify(self, rounds):
        rng = random.Random(f"gate-{self.name}-{self.seed}")
        n = len(self.scenarios)
        reference = {i: A.scenario_reference(
            self.book, self.scenarios[i], n_paths=self.z["n_paths"],
            seed=self.seed) for i in _sample(n, rng)}
        digest = rounds[0].replies[0].pnl_digest()
        attempted = failed = 0
        for rnd in rounds:
            for report in rnd.replies:
                attempted += n
                if report.pnl_digest() != digest:
                    failed += n
                    continue
                failed += sum(A.value_bits(report.values[i]) != bits
                              for i, bits in reference.items())
        return attempted, failed

    def layer_metrics(self, rec, traced, untraced):
        first = traced[0]
        n = len(self.scenarios)
        cold, _ = first.replies
        probe = A.probe_risk(self.book, self.scenarios,
                             n_paths=self.z["n_paths"], seed=self.seed,
                             pnl=cold.pnl)
        serve_s, overhead_s = self._serve_span_metrics(rec)
        risk_wall = sum(s.duration for s in rec.closed()
                        if s.layer == "risk" and s.name == "revalue_book")
        hits, misses = sum(first.extra["hits"]), sum(first.extra["misses"])
        requests = [A.mc_request(w, n_paths=self.z["n_paths"], seed=self.seed,
                                 p=1) for w in self.book]
        out = {
            **first.extra["serve_counts"],
            "risk.apply_us": 1e6 * probe["apply_s"],
            "risk.request_build_us": 1e6 * probe["build_s"],
            "risk.var_es_us": 1e6 * probe["var_es_s"],
            "risk.overhead_share": 1.0 - serve_s / risk_wall,
            "risk.cold_scen_per_s": n / statistics.median(
                r.extra["cold_s"] for r in traced + untraced),
            "risk.hot_scen_per_s": n / statistics.median(
                r.extra["hot_s"] for r in traced + untraced),
            "serve.cache_hit_share": hits / (hits + misses),
            "serve.batch_overhead_us": 1e6 * overhead_s / len(self.book),
        }
        out.update(self._serve_probes(requests))
        out.update(self._engine_probes({"mc": requests[0]}))
        counts = self._op_counts(requests)
        out["mc.paths"] = counts["mc.paths"] * (n + 1)  # cold pass: base + n
        out.update(self._span_metrics(rec, traced, untraced))
        return out


# ---------------------------------------------------------------------------
# scaling_mc: the paper's T(P)
# ---------------------------------------------------------------------------


class ScalingMC(Workload):
    name = "scaling_mc"

    def open(self, stack):
        z = self.z
        t0 = clock()
        self.pool = stack.enter_context(A.process_backend(z["workers"]))
        self.setup_parts["pool_start_s"] = clock() - t0
        self.serial = A.serial_backend()
        self.contract = A.scaling_contract(z["dim"])
        for backend in (self.serial, self.pool):
            self._solve(backend, z["warm_paths"])

    def _solve(self, backend, n_paths=None):
        z = self.z
        return A.mc_solve(self.contract, backend,
                          n_paths=n_paths or z["n_paths"], seed=self.seed,
                          ranks=z["ranks"])

    def round(self, index, rec=None):
        if rec is None:
            t0 = clock()
            r1 = self._solve(self.serial)
            t1 = clock()
            r2 = self._solve(self.pool)
            t2 = clock()
            extra = {}
        else:
            track = lambda: index  # noqa: E731
            backends = [A.TracedBackend(b, rec, track)
                        for b in (self.serial, self.pool)]
            with rec.span(ROOT, "round", index):
                with rec.span("engine", "solve", index) as s1:
                    r1 = self._solve(backends[0])
                with rec.span("engine", "solve", index) as s2:
                    r2 = self._solve(backends[1])
            t0, t1, t2 = s1.t0, s1.t1, s2.t1
            extra = {"map": backends[1].maps[-1]}
        extra.update(p1_s=t1 - t0, p2_s=t2 - t1)
        return Round(units=self.z["n_paths"], wall=t2 - t1,
                     latencies=[t2 - t1], replies=(r1, r2), extra=extra)

    def request_digest(self):
        return [f"{self.z['n_paths']}-{self.z['ranks']}-{self.seed}"]

    def verify(self, rounds):
        want = A.value_bits(rounds[0].replies[0].price)  # the serial solve
        attempted = failed = 0
        for rnd in rounds:
            for result in rnd.replies:
                attempted += 1
                failed += A.value_bits(result.price) != want
        return attempted, failed

    def layer_metrics(self, rec, traced, untraced):
        z = self.z
        p1 = statistics.median(r.extra["p1_s"] for r in untraced)
        p2 = statistics.median(r.extra["p2_s"] for r in untraced)
        host = A.probe_host_speedup(self.pool)
        with A.thread_backend(z["workers"]) as threads:
            self._solve(threads, z["warm_paths"])
            thread_s = A.median_time(lambda: self._solve(threads))
        one_rank = A.mc_request(self.contract,
                                n_paths=z["n_paths"] // z["ranks"],
                                seed=self.seed, p=1)
        out = {
            **self._engine_probes({"mc": one_rank}),
            "parallel.solve_p1_s": p1,
            "parallel.solve_p2_s": p2,
            "parallel.speedup_p2": p1 / p2,
            "parallel.efficiency_p2": p1 / p2 / z["workers"],
            "parallel.thread_solve_s": thread_s,
            "parallel.pool_start_ms": 1e3 * self.setup_parts["pool_start_s"],
            "parallel.host_speedup_p2": host,
            "parallel.unresolved_host": int(host < 1.2),
            **self._map_metrics(traced[0].extra["map"], z["workers"]),
            "mc.paths": 2 * z["n_paths"],
        }
        out.update(self._span_metrics(rec, traced, untraced))
        return out


WORKLOAD_CLASSES = {cls.name: cls for cls in (QuoteCold, QuoteHot, BookBatch,
                                              RiskSweep, ScalingMC)}

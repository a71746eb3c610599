"""Determinism checker: seeded runs must be **bitwise** reproducible.

The parallel layers promise more than statistical agreement — a seeded run
is a pure function of ``(seed, scheme, p)``, so its price must not change
by a single bit when the *execution* changes:

* serial vs thread vs process backends (same substreams, same reduction
  order);
* fault-free vs fault-injected-with-retry (each attempt replays a fresh
  copy of the rank task, so substreams are never consumed twice);
* degrade-mode replays (a degraded run is deterministic in its plan);
* repeated replays of every seeded engine (MC, QMC, MLMC, LSM, lattice,
  PDE) — including MLMC and LSM executed *inside* backend workers, which
  is how a real scaling run would ship them to a process pool;
* the serve layer: one batch vs many, serial vs chunked process maps, and
  a 100 % cache-hit replay must all produce the same quote bits;
* the execute-stage scheduler: static, LPT and work-stealing placements
  (on every backend, with and without fault retries) must agree bitwise,
  and the virtual-time steal schedule replays byte-identically from its
  seed.

A violation means a nondeterministic reduction (unordered sum, shared RNG
state, thread-dependent accumulation) crept in; the checker reports the
check, the differing executions, and the hex bit patterns side by side so
the drift is undeniable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.market.gbm import MultiAssetGBM
from repro.payoffs.asian import AsianGeometricCall
from repro.payoffs.basket import BasketCall
from repro.payoffs.vanilla import Call, Put

__all__ = ["DeterminismResult", "float_bits", "run_determinism",
           "DETERMINISM_CHECKS", "mlmc_worker", "lsm_worker"]


def float_bits(x: float) -> str:
    """IEEE-754 bit pattern of ``x`` as a hex string (bitwise identity)."""
    return struct.pack(">d", float(x)).hex()


@dataclass(frozen=True)
class DeterminismResult:
    """Outcome of one determinism check: a set of executions and their bits."""

    check: str
    subject: str
    ok: bool
    bits: dict  # execution label -> hex bit pattern
    detail: str = ""

    def __str__(self) -> str:
        status = "ok" if self.ok else "NONDETERMINISTIC"
        pat = ", ".join(f"{k}={v}" for k, v in self.bits.items())
        return (f"[{status}] {self.check} — {self.subject}: {pat}"
                + (f" — {self.detail}" if self.detail else ""))

    def to_dict(self) -> dict:
        return {"check": self.check, "subject": self.subject, "ok": self.ok,
                "bits": dict(self.bits), "detail": self.detail}


def _verdict(check, subject, bits, detail="") -> DeterminismResult:
    ok = len(set(bits.values())) == 1
    return DeterminismResult(check, subject, ok, dict(bits), detail)


# ----------------------------------------------------------------------
# Module-level workers: ProcessBackend pickles these, so they cannot be
# closures. Each takes a plain dict of settings and returns the price.
# ----------------------------------------------------------------------

def mlmc_worker(cfg: dict) -> float:
    """Price a 1-d discrete geometric Asian via MLMC from a settings dict."""
    from repro.mc.multilevel import mlmc_price

    model = MultiAssetGBM.single(cfg["spot"], cfg["vol"], cfg["rate"])
    result = mlmc_price(model, AsianGeometricCall(cfg["strike"]), cfg["expiry"],
                        base_steps=cfg["base_steps"], levels=cfg["levels"],
                        target_stderr=cfg["target_stderr"], pilot=cfg["pilot"],
                        seed=cfg["seed"],
                        max_paths_per_level=cfg["max_paths_per_level"])
    return result.price


def lsm_worker(cfg: dict) -> float:
    """Price a 1-d American put via Longstaff–Schwartz from a settings dict."""
    from repro.mc.american import lsm_price

    model = MultiAssetGBM.single(cfg["spot"], cfg["vol"], cfg["rate"])
    result = lsm_price(model, Put(cfg["strike"]), cfg["expiry"], cfg["steps"],
                       cfg["n_paths"], degree=cfg["degree"], seed=cfg["seed"])
    return result.price


MLMC_CFG = {"spot": 100.0, "vol": 0.2, "rate": 0.05, "strike": 100.0,
            "expiry": 1.0, "base_steps": 2, "levels": 2,
            "target_stderr": 0.05, "pilot": 256, "max_paths_per_level": 4096,
            "seed": 21}

LSM_CFG = {"spot": 100.0, "vol": 0.2, "rate": 0.05, "strike": 100.0,
           "expiry": 1.0, "steps": 10, "n_paths": 2000, "degree": 2,
           "seed": 22}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def check_backend_invariance(n_paths: int, seed: int) -> list[DeterminismResult]:
    """ParallelMCPricer must be bitwise identical on every backend."""
    from repro.engine import ParallelMCPricer
    from repro.parallel.backends import make_backend

    model = MultiAssetGBM.equicorrelated(3, 100.0, 0.25, 0.05, 0.3)
    payoff = BasketCall([1 / 3] * 3, 100.0)
    bits = {}
    for name in ("serial", "thread", "process"):
        with make_backend(name, 2) as backend:
            pricer = ParallelMCPricer(n_paths, seed=seed, backend=backend)
            bits[name] = float_bits(pricer.price(model, payoff, 1.0, 4).price)
    return [_verdict("backend-invariance", "parallel-mc basket-d3 p=4", bits)]


def check_fault_invariance(n_paths: int, seed: int) -> list[DeterminismResult]:
    """A retried run equals the fault-free run; degrade replays stably."""
    from repro.engine import ParallelMCPricer
    from repro.parallel.faults import FaultPlan

    model = MultiAssetGBM.single(100.0, 0.2, 0.05)
    payoff = Call(100.0)

    def run(**kw):
        return ParallelMCPricer(n_paths, seed=seed, **kw).price(
            model, payoff, 1.0, 4).price

    out = [_verdict("fault-invariance", "retry == fault-free", {
        "fault-free": float_bits(run()),
        "retry-after-crash": float_bits(
            run(faults=FaultPlan.single_crash(1), policy="retry")),
    })]
    # Degrade drops paths so it differs from fault-free — but two replays
    # of the *same* degraded plan must be bitwise identical.
    degraded = {
        f"replay{i}": float_bits(
            run(faults=FaultPlan.single_crash(1, permanent=True),
                policy="degrade"))
        for i in range(2)
    }
    out.append(_verdict("fault-invariance", "degrade replay stable", degraded))
    return out


def check_engine_replay(n_paths: int, seed: int) -> list[DeterminismResult]:
    """Every seeded/deterministic engine prices identically twice in a row."""
    from repro.lattice import binomial_price
    from repro.mc import MonteCarloEngine, QMCSobol
    from repro.pde import fd_price

    model = MultiAssetGBM.single(100.0, 0.2, 0.05)
    runs = {
        "mc": lambda: MonteCarloEngine(n_paths, seed=seed).price(
            model, Call(100.0), 1.0).price,
        "qmc": lambda: MonteCarloEngine(
            4096, technique=QMCSobol(replicates=4, seed=seed)).price(
            model, Call(100.0), 1.0).price,
        "mlmc": lambda: mlmc_worker(MLMC_CFG),
        "lsm": lambda: lsm_worker(LSM_CFG),
        "lattice": lambda: binomial_price(100.0, Put(100.0), 0.2, 0.05, 1.0,
                                          128, american=True).price,
        "pde": lambda: fd_price(100.0, Put(100.0), 0.2, 0.05, 1.0,
                                n_space=64, n_time=32, american=True).price,
    }
    return [
        _verdict("engine-replay", name,
                 {f"run{i}": float_bits(fn()) for i in range(2)})
        for name, fn in runs.items()
    ]


def check_worker_invariance(n_paths: int, seed: int) -> list[DeterminismResult]:
    """MLMC and LSM shipped through backend workers stay bitwise identical.

    This is the cross-backend guarantee for the *stateful* estimators: the
    multilevel ladder and the regression both involve ordered reductions
    that would betray a threading bug immediately.
    """
    from repro.parallel.backends import make_backend

    out = []
    for label, worker, cfg in (("mc.multilevel", mlmc_worker, MLMC_CFG),
                               ("mc.american", lsm_worker, LSM_CFG)):
        bits = {}
        for name in ("serial", "thread", "process"):
            with make_backend(name, 2) as backend:
                prices = backend.map(worker, [dict(cfg), dict(cfg)])
            if float_bits(prices[0]) != float_bits(prices[1]):
                bits[f"{name}-intra"] = "mismatch"
            bits[name] = float_bits(prices[0])
        out.append(_verdict("worker-invariance", label, bits))
    return out


def check_serve_batching(n_paths: int, seed: int) -> list[DeterminismResult]:
    """The serve layer must never move a price: a quote is a pure function
    of its request config, bitwise independent of batch boundaries, chunk
    size, backend, and cache state (including a 100 % cache-hit replay).
    """
    import hashlib

    from repro.parallel.backends import make_backend
    from repro.serve import PriceCache, PricingRequest, PricingService
    from repro.workloads.generators import random_portfolio

    book = random_portfolio(8, seed=seed)
    requests = [PricingRequest(w, engine="mc", n_paths=max(n_paths // 8, 256),
                               seed=seed + i, p=2, name=w.name)
                for i, w in enumerate(book)]

    def digest(quotes):
        joined = "|".join(float_bits(q.price) for q in quotes)
        return hashlib.sha256(joined.encode()).hexdigest()[:16]

    bits = {}
    with PricingService(max_batch=len(requests), cache=None) as svc:
        bits["one-batch-serial"] = digest(svc.price_many(requests))
    with PricingService(max_batch=3, cache=None) as svc:
        bits["small-batches"] = digest(svc.price_many(requests))
    with make_backend("process", 2) as backend:
        with PricingService(backend, max_batch=len(requests),
                            chunksize=2, cache=None) as svc:
            bits["process-chunked"] = digest(svc.price_many(requests))
    cache = PriceCache(64)
    with PricingService(max_batch=len(requests), cache=cache) as svc:
        bits["cache-cold"] = digest(svc.price_many(requests))
        bits["cache-replay"] = digest(svc.price_many(requests))
        replay_maps = svc.map_calls
    detail = "" if replay_maps == 1 else (
        f"cache-hit replay issued {replay_maps - 1} extra map call(s)")
    out = [_verdict("serve-batching", "mc book of 8, digest of price bits",
                    bits, detail)]
    if detail:
        out[0] = DeterminismResult(out[0].check, out[0].subject, False,
                                   out[0].bits, detail)
    return out


def check_strip_batching(n_paths: int, seed: int) -> list[DeterminismResult]:
    """Fused contract strips must price bitwise like their single runs.

    Three angles: the engine layer (``run_strip`` vs ``run_engine`` for MC
    and the lattice), and the serve layer (the service, which fuses one
    strip-shaped book into one task, vs the serial ``price_request`` loop
    over the same requests, compared by price-bit digest — ``sim_time``
    legitimately differs, it describes the fused run).
    """
    import hashlib

    from repro.engine import (ParallelLatticePricer, ParallelMCPricer,
                              run_engine, run_strip)
    from repro.serve import PricingRequest, PricingService, price_request
    from repro.workloads.generators import strike_strip

    model = MultiAssetGBM.single(100.0, 0.2, 0.05)
    payoffs = [Call(90.0), Call(100.0), Call(110.0), Put(100.0)]
    out = []

    mc = ParallelMCPricer(max(n_paths // 8, 256), seed=seed)
    singles = [run_engine(mc, model, py, 1.0, 4).price
               for py in payoffs]
    fused = [r.price for r in run_strip(mc, model, payoffs, 1.0, 4)]
    out.append(_verdict("strip-batching", "mc strip of 4, p=4", {
        "singles": "|".join(float_bits(x) for x in singles),
        "fused": "|".join(float_bits(x) for x in fused),
    }))

    lat = ParallelLatticePricer(96)
    singles = [run_engine(lat, model, py, 1.0, 3).price
               for py in payoffs]
    fused = [r.price for r in run_strip(lat, model, payoffs, 1.0, 3)]
    out.append(_verdict("strip-batching", "lattice strip of 4, p=3", {
        "singles": "|".join(float_bits(x) for x in singles),
        "fused": "|".join(float_bits(x) for x in fused),
    }))

    # One shared model and seed across the book, so the service fuses
    # the whole stream into a single strip.
    requests = [PricingRequest(w, engine="mc",
                               n_paths=max(n_paths // 16, 256),
                               seed=seed, p=2, name=w.name)
                for w in strike_strip(12)]

    def digest(quotes):
        joined = "|".join(float_bits(q.price) + float_bits(q.stderr)
                          for q in quotes)
        return hashlib.sha256(joined.encode()).hexdigest()[:16]

    bits = {"single-path": digest([price_request(r) for r in requests])}
    with PricingService(max_batch=len(requests), cache=None) as svc:
        bits["batched-path"] = digest(svc.price_many(requests))
        batched_maps = svc.map_calls
    detail = "" if batched_maps == 1 else (
        f"service issued {batched_maps} map calls for one batch")
    verdict = _verdict("strip-batching", "serve 12-strike strip, digest",
                       bits, detail)
    if detail:
        verdict = DeterminismResult(verdict.check, verdict.subject, False,
                                    verdict.bits, detail)
    out.append(verdict)
    return out


def check_gateway(n_paths: int, seed: int) -> list[DeterminismResult]:
    """Two priced virtual-time gateway runs of one seeded overload
    schedule must agree **bitwise**: identical price streams (every
    completed quote's price+stderr bits, sequence-ordered) and identical
    admit/shed/done decision logs. Catches nondeterminism anywhere in
    the serving stack — routing, lane ordering, admission arithmetic,
    per-shard caches, or the engines underneath."""
    from repro.gateway.loadgen import CostModel, LoadgenConfig, open_loop_schedule
    from repro.gateway.simulate import run_schedule

    cost = CostModel()
    cfg = LoadgenConfig(seed=seed, rate=420.0, duration_s=0.6,
                        n_paths=max(n_paths // 40, 250), unique=False)

    def one_run():
        res = run_schedule(open_loop_schedule(cfg), n_shards=2, cost=cost,
                           duration_s=cfg.duration_s, max_queue=16,
                           priced=True)
        return res.price_stream_digest(), res.decision_log_digest()

    prices_a, decisions_a = one_run()
    prices_b, decisions_b = one_run()
    return [
        _verdict("gateway", "2-shard priced replay, price stream digest",
                 {"run-a": prices_a, "run-b": prices_b}),
        _verdict("gateway", "2-shard priced replay, decision log digest",
                 {"run-a": decisions_a, "run-b": decisions_b}),
    ]


def check_risk(n_paths: int, seed: int) -> list[DeterminismResult]:
    """Seeded risk sweeps must replay **bitwise**: the full-revaluation
    P&L vector digest (base + every scenario value through the shared
    price cache) and the priced gateway drive of the same sweep (price
    stream + decision log). Catches drift in the shock generators, the
    PSD repair, the revaluation batching, and the lane-tagged bridge."""
    from repro.risk.bridge import run_risk_sweep
    from repro.risk.scenarios import stress_scenarios
    from repro.risk.var import revalue_book
    from repro.workloads.generators import strike_strip

    book = strike_strip(3, dim=2)
    scenarios = stress_scenarios(2, 5, seed=seed)
    paths = max(n_paths // 40, 250)

    reports = [revalue_book(book, scenarios, n_paths=paths, seed=seed,
                            levels=(0.95,))
               for _ in range(2)]
    out = [_verdict("risk", "full-revaluation pnl digest, 5 scenarios",
                    {"run-a": reports[0].pnl_digest(),
                     "run-b": reports[1].pnl_digest()})]

    def one_sweep():
        res = run_risk_sweep(book, scenarios, n_shards=2, n_paths=paths,
                             seed=seed, priced=True)
        return res.price_stream_digest(), res.decision_log_digest()

    prices_a, decisions_a = one_sweep()
    prices_b, decisions_b = one_sweep()
    out.append(_verdict("risk", "gateway sweep, price stream digest",
                        {"run-a": prices_a, "run-b": prices_b}))
    out.append(_verdict("risk", "gateway sweep, decision log digest",
                        {"run-a": decisions_a, "run-b": decisions_b}))
    return out


def check_scheduler(n_paths: int, seed: int) -> list[DeterminismResult]:
    """Scheduling is placement only: a scheduled run must price bitwise
    like the static run on every backend, a stolen task that faults and
    retries must still land on the fault-free bits, and the virtual-time
    steal schedule itself must be a pure function of its seed."""
    from repro.engine import ParallelMCPricer
    from repro.parallel.backends import make_backend
    from repro.parallel.faults import FaultPlan
    from repro.parallel.sched import simulate_schedule

    model = MultiAssetGBM.equicorrelated(3, 100.0, 0.25, 0.05, 0.3)
    payoff = BasketCall([1 / 3] * 3, 100.0)

    def run(backend=None, **kw):
        pricer = ParallelMCPricer(n_paths, seed=seed, backend=backend, **kw)
        return float_bits(pricer.price(model, payoff, 1.0, 6).price)

    out = []
    # Every (strategy, backend) cell against the serial static reference.
    bits = {"static-serial": run()}
    for strategy in ("lpt", "steal"):
        for name in ("serial", "thread", "process"):
            with make_backend(name, 2) as backend:
                bits[f"{strategy}-{name}"] = run(backend=backend,
                                                 scheduler=strategy)
    out.append(_verdict("scheduler", "parallel-mc basket-d3 p=6, "
                                     "strategy x backend", bits))

    # A crash under stealing retries on the same bits as fault-free static.
    with make_backend("thread", 2) as backend:
        out.append(_verdict("scheduler", "steal + retry == fault-free", {
            "fault-free": bits["static-serial"],
            "steal-retry": run(backend=backend, scheduler="steal",
                               faults=FaultPlan.single_crash(1),
                               policy="retry"),
        }))

    # The simulated steal schedule replays byte-identically from its seed.
    costs = [float((7 * i) % 11 + 1) for i in range(24)]
    digests = {
        f"replay{i}": simulate_schedule(costs, 4, strategy="steal",
                                        seed=seed).digest()
        for i in range(2)
    }
    out.append(_verdict("scheduler", "virtual steal schedule digest",
                        digests))
    return out


#: Name → check callable; each takes ``(n_paths, seed)``.
DETERMINISM_CHECKS = {
    "backend-invariance": check_backend_invariance,
    "fault-invariance": check_fault_invariance,
    "engine-replay": check_engine_replay,
    "worker-invariance": check_worker_invariance,
    "serve-batching": check_serve_batching,
    "strip-batching": check_strip_batching,
    "gateway": check_gateway,
    "risk": check_risk,
    "scheduler": check_scheduler,
}


def run_determinism(*, n_paths: int = 20_000,
                    seed: int = 17) -> list[DeterminismResult]:
    """Run every determinism check; deterministic in ``(n_paths, seed)``."""
    results: list[DeterminismResult] = []
    for check in DETERMINISM_CHECKS.values():
        results.extend(check(n_paths, seed))
    return results

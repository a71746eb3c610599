"""F15 — Serving throughput: batching, the price cache, and the chunked
shared-memory transport.

Three measurements on the serve layer:

* **F15a — requests/sec vs P.** A fixed request stream pushed through the
  :class:`~repro.serve.PricingService` on process backends of increasing
  width. Throughput should grow with P until per-request work stops
  covering dispatch overhead. (On a single-core host — CI containers —
  the sweep degenerates to a dispatch-overhead measurement and the rows
  stay flat; it is report-only, never gated.)
* **F15b — cache hit-rate sweep.** The same stream replayed with caches
  sized for 0%, partial and 100% hit rates: served throughput should
  climb steeply with hit rate, and the 100% row must report **zero**
  backend map calls.
* **F15c — chunked+shm vs per-task pickle.** The scenario-revaluation
  batch (64 payoffs × one 4 MB terminal-scenario matrix, the Premia-style
  risk job) on a 4-worker process backend: per-task pickling of the
  matrix vs one shared-memory segment + chunked dispatch. The claim
  gated here: **≥ 1.3× speedup** for the chunked shared-memory transport.
* **F15d — contracts/sec, fused strips vs singles.** A 1 000-contract
  vanilla strike strip on one shared model, priced through a
  ``PricingService`` (its planner fuses the misses into one strip: shared
  path generation, per-contract payoffs) vs the serial ``price_request``
  loop, one run per contract. Gated claims: **≥ 5× contracts/sec** for
  the service, and every served quote **bitwise equal** (price and
  stderr) to its single-run quote.

``--smoke`` runs a scaled-down version of all four and exits nonzero if
the F15c/F15d speedup gates, the F15d bitwise invariant or the F15b
zero-map-call invariant fails — the CI throughput lane runs exactly that
(F15d keeps the full 1 000-contract strip even in smoke; the gate is the
acceptance criterion).
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.parallel import ProcessBackend
from repro.payoffs import BasketCall
from repro.serve import (PriceCache, PricingRequest, PricingService,
                         price_request, revalue_scenarios)
from repro.utils import Table
from repro.verify.determinism import float_bits
from repro.workloads import random_portfolio, strike_strip

SPEEDUP_GATE = 1.3
STRIP_GATE = 5.0
REPEATS = 3


def _request_stream(n_requests: int, n_contracts: int, paths: int):
    book = random_portfolio(n_contracts, dim=4, seed=0)
    return [
        PricingRequest(book[i % len(book)], engine="mc", n_paths=paths,
                       seed=i % len(book), p=2)
        for i in range(n_requests)
    ]


# ---------------------------------------------------------------------------
# F15a — requests/sec vs P
# ---------------------------------------------------------------------------

def build_f15a_throughput(n_requests: int = 64, paths: int = 40_000,
                          p_list=(1, 2, 4)) -> Table:
    requests = _request_stream(n_requests, n_requests, paths)
    table = Table(["workers", "req/s", "batches", "wall (s)"],
                  title=f"F15a — serve throughput, {n_requests} requests "
                        f"(mc, N={paths}), batch=16",
                  floatfmt=".4g")
    for p in p_list:
        with ProcessBackend(p) as backend:
            with PricingService(backend, max_batch=16, cache=None) as svc:
                t0 = time.perf_counter()
                quotes = svc.price_many(requests)
                wall = time.perf_counter() - t0
                batches = svc.batches
        table.add_row([p, len(quotes) / wall, batches, wall])
    return table


# ---------------------------------------------------------------------------
# F15b — throughput vs cache hit rate
# ---------------------------------------------------------------------------

def build_f15b_cache(n_requests: int = 48, paths: int = 4_000
                     ) -> tuple[Table, int]:
    """Replay a stream against cold / warm / hot caches.

    Returns the table plus the number of map calls the 100 %-hit replay
    issued (must be zero — the acceptance invariant).
    """
    requests = _request_stream(n_requests, n_requests // 3, paths)
    table = Table(["cache", "hit rate", "map calls", "req/s"],
                  title=f"F15b — cache sweep, {n_requests} requests "
                        f"({n_requests // 3} distinct contracts)",
                  floatfmt=".4g")
    hot_maps = -1
    for label, cache, passes in (("disabled", None, 1),
                                 ("cold->warm", PriceCache(256), 1),
                                 ("hot replay", PriceCache(256), 2)):
        with PricingService(cache=cache, max_batch=16) as svc:
            for _ in range(passes - 1):
                svc.price_many(requests)  # warm-up passes
            maps_before = svc.map_calls
            hits_before = cache.hits if cache else 0
            lookups_before = (cache.hits + cache.misses) if cache else 0
            t0 = time.perf_counter()
            quotes = svc.price_many(requests)
            wall = time.perf_counter() - t0
            maps = svc.map_calls - maps_before
            if cache:
                hits = cache.hits - hits_before
                lookups = cache.hits + cache.misses - lookups_before
                rate = hits / lookups
            else:
                rate = 0.0
        if label == "hot replay":
            hot_maps = maps
        table.add_row([label, rate, maps, len(quotes) / wall])
    return table, hot_maps


# ---------------------------------------------------------------------------
# F15c — chunked shared-memory transport vs per-task pickle
# ---------------------------------------------------------------------------

def build_f15c_transport(n_payoffs: int = 64, n_scenarios: int = 131_072,
                         workers: int = 4, repeats: int = REPEATS
                         ) -> tuple[Table, float]:
    """The tentpole gate: ≥ 1.3× on the 64-contract revaluation batch.

    One terminal-scenario matrix (n_scenarios × 4 float64 ≈ 4 MB at the
    default size), revalued by ``n_payoffs`` basket payoffs at P=4. The
    baseline pickles the matrix into every task; the treatment ships it
    once through POSIX shared memory and chunks the dispatch.
    """
    rng = np.random.default_rng(7)
    scenarios = 80.0 + 40.0 * rng.random((n_scenarios, 4))
    payoffs = [BasketCall([0.25] * 4, 80.0 + 0.5 * k)
               for k in range(n_payoffs)]

    def run(shm_min_bytes, chunksize):
        best = np.inf
        value = None
        with ProcessBackend(workers, shm_min_bytes=shm_min_bytes) as be:
            # Warm the pool (fork + import cost) outside the timed region:
            # the measurement is the steady-state transport, not spin-up.
            revalue_scenarios(payoffs[:workers], scenarios, backend=be,
                              chunksize=chunksize)
            for _ in range(repeats):
                t0 = time.perf_counter()
                value = revalue_scenarios(payoffs, scenarios, backend=be,
                                          chunksize=chunksize)
                best = min(best, time.perf_counter() - t0)
        return best, value

    t_pickle, v_pickle = run(None, None)          # per-task pickle baseline
    t_shm, v_shm = run(1 << 16, "auto")           # shm + chunked
    assert v_pickle == v_shm, "transport changed the numbers"
    speedup = t_pickle / t_shm
    mb = scenarios.nbytes / 2 ** 20
    table = Table(["transport", "best wall (s)", "speedup"],
                  title=f"F15c — {n_payoffs}-contract revaluation, "
                        f"{mb:.0f} MB scenario matrix, P={workers} "
                        f"(best of {repeats})",
                  floatfmt=".4g")
    table.add_row(["per-task pickle", t_pickle, 1.0])
    table.add_row(["shm + chunked", t_shm, speedup])
    return table, speedup


# ---------------------------------------------------------------------------
# F15d — fused contract strips vs the single-request path
# ---------------------------------------------------------------------------

def build_f15d_strip(n_contracts: int = 1_000, paths: int = 50_000,
                     repeats: int = REPEATS) -> tuple[Table, float]:
    """The batched-pricing gate: ≥ 5× contracts/sec on a vanilla strip.

    One shared model, ``n_contracts`` strikes, one seed — the whole miss
    set fuses into a single :class:`~repro.batch.strip.ContractStrip`, so
    path generation (and the engine/cluster setup around it) is paid once
    instead of per contract. The quotes must nevertheless be bitwise
    identical to the serial ``price_request`` loop (the reference
    implementation): the speedup is amortization, not a numerical shortcut.
    """
    book = strike_strip(n_contracts)
    requests = [PricingRequest(w, engine="mc", n_paths=paths, seed=0, p=2,
                               name=w.name)
                for w in book]

    def serve():
        with PricingService(cache=None, max_batch=len(requests)) as svc:
            return svc.price_many(requests)

    def best_of(price):
        best = float("inf")
        quotes = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            quotes = price()
            best = min(best, time.perf_counter() - t0)
        return best, quotes

    t_single, q_single = best_of(lambda: [price_request(r) for r in requests])
    t_batched, q_batched = best_of(serve)
    mismatched = sum(
        1 for a, b in zip(q_single, q_batched)
        if float_bits(a.price) != float_bits(b.price)
        or float_bits(a.stderr) != float_bits(b.stderr))
    assert mismatched == 0, (
        f"{mismatched}/{len(q_single)} batched quotes differ from the "
        f"single path — fusion changed the numbers")
    speedup = t_single / t_batched
    table = Table(["path", "best wall (s)", "contracts/s", "speedup"],
                  title=f"F15d — {n_contracts}-strike strip (mc, N={paths}), "
                        f"fused vs single (best of {repeats})",
                  floatfmt=".4g")
    table.add_row(["single requests", t_single, n_contracts / t_single, 1.0])
    table.add_row(["fused strip", t_batched, n_contracts / t_batched,
                   speedup])
    return table, speedup


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (same harness as F13/F14)
# ---------------------------------------------------------------------------

def test_f15_throughput(benchmark, show):
    requests = _request_stream(16, 16, 2_000)

    def serve_once():
        with PricingService(max_batch=8, cache=None) as svc:
            return svc.price_many(requests)

    benchmark(serve_once)
    table, hot_maps = build_f15b_cache(n_requests=24, paths=2_000)
    show(table.render())
    assert hot_maps == 0, "100% cache-hit replay touched the backend"


def test_f15d_strip(show):
    # Small-scale lane version: the bitwise assert inside the builder is
    # the hard invariant; the wall-clock gate here is a conservative floor
    # (the full 5x gate runs on the 1k strip in the __main__ smoke job).
    table, speedup = build_f15d_strip(n_contracts=200, paths=2_000,
                                      repeats=1)
    show(table.render())
    assert speedup >= 2.0, (
        f"fused strip only {speedup:.2f}x over singles (floor 2x)")


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    if smoke:
        # CI scale: smaller request stream; F15c keeps the full-size matrix
        # (a smaller one compresses the pickle/shm ratio toward noise) and
        # F15d keeps the full 1k-contract strip (the acceptance gate).
        a = build_f15a_throughput(n_requests=16, paths=2_000, p_list=(1, 2))
        b, hot_maps = build_f15b_cache(n_requests=24, paths=2_000)
        c, speedup = build_f15c_transport(repeats=2)
        d, strip_speedup = build_f15d_strip(repeats=2)
    else:
        a = build_f15a_throughput()
        b, hot_maps = build_f15b_cache()
        c, speedup = build_f15c_transport()
        d, strip_speedup = build_f15d_strip()
    for table in (a, b, c, d):
        print(table.render())
        print()
    failed = False
    if hot_maps != 0:
        print(f"FAIL: hot replay issued {hot_maps} map calls (expected 0)",
              file=sys.stderr)
        failed = True
    if speedup < SPEEDUP_GATE:
        print(f"FAIL: shm+chunked speedup {speedup:.2f}x < "
              f"{SPEEDUP_GATE}x gate", file=sys.stderr)
        failed = True
    if strip_speedup < STRIP_GATE:
        print(f"FAIL: fused-strip speedup {strip_speedup:.2f}x < "
              f"{STRIP_GATE}x gate", file=sys.stderr)
        failed = True
    if failed:
        raise SystemExit(1)
    print(f"OK: hot replay hit zero map calls; shm+chunked {speedup:.2f}x "
          f">= {SPEEDUP_GATE}x; fused strip {strip_speedup:.2f}x >= "
          f"{STRIP_GATE}x")

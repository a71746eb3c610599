"""Command-line interface: ``python -m repro <command>``.

Seven commands cover the library's headline flows without writing code:

* ``price`` — price one contract with the MC engine and a confidence
  interval (optionally against the matching closed form);
* ``engines`` — list every registered engine family with its capability
  flags and the verification-corpus cases it participates in (``--csv``
  for machine consumption);
* ``scaling`` — run a strong-scaling sweep of one parallel engine on the
  simulated machine and print the full diagnostic table (optionally
  emitting a Chrome trace of the largest run via ``--emit-trace``);
* ``portfolio`` — price a seeded random book under each scheduling policy
  and compare makespans (the book value is the same on every row);
* ``serve`` — push a request stream through the
  :class:`~repro.serve.PricingService` and report per-pass throughput,
  batch/map counts and cache hit rate;
* ``trace`` — run one parallel pricing job with the tracer attached and
  write a Perfetto-loadable ``<out>.trace.json`` plus a canonical
  ``<out>.metrics.json`` snapshot (optionally under an injected fault
  plan — the chaos-trace workflow from docs/tutorial);
* ``obs`` — the run-ledger toolbox: ``obs report`` summarizes a JSONL
  ledger per (kind, engine, stage) with quantiles; ``obs diff`` compares
  two ledgers under noise-aware tolerance bands and exits nonzero on a
  regression (the CI perf gate); ``obs flame`` runs one pricing job under
  the sampling profiler and writes flamegraph collapsed stacks;
* ``verify`` — replay the correctness-verification corpus (differential
  oracle, metamorphic properties, golden-master diff, determinism checks)
  and exit nonzero on any violation; ``--update`` rebaselines the golden
  snapshot after an intentional numerical change.

Engine families are resolved by canonical name through the
:class:`~repro.engine.registry.EngineRegistry` — the ``--engine`` choices
and the per-engine workload/pricer factories all come from the registry,
so a newly registered family shows up in every subcommand automatically.

The functions return an exit code and print to stdout, so they are unit-
testable without subprocesses.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.engine.registry import default_registry
from repro.parallel.sched import SCHEDULER_NAMES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel pricing of multidimensional derivatives "
                    "(ICPP 2002 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_price = sub.add_parser("price", help="price one contract by Monte Carlo")
    p_price.add_argument("--contract", choices=("basket", "rainbow", "spread"),
                         default="basket")
    p_price.add_argument("--dim", type=int, default=4,
                         help="basket dimension (basket contract only)")
    p_price.add_argument("--paths", type=int, default=100_000)
    p_price.add_argument("--seed", type=int, default=0)
    p_price.add_argument("--qmc", action="store_true",
                         help="use randomized Sobol QMC instead of plain MC")

    p_engines = sub.add_parser(
        "engines",
        help="list registered engine families, capability flags and the "
             "verification-corpus cases each participates in",
    )
    p_engines.add_argument("--csv", action="store_true",
                           help="emit the table as CSV instead of text")

    p_scale = sub.add_parser("scaling", help="strong-scaling sweep on the "
                                             "simulated machine")
    p_scale.add_argument("--engine",
                         choices=default_registry().names(scalable=True),
                         default="mc")
    p_scale.add_argument("--plist", default="1,2,4,8,16,32",
                         help="comma-separated processor counts")
    p_scale.add_argument("--paths", type=int, default=200_000)
    p_scale.add_argument("--steps", type=int, default=200)
    p_scale.add_argument("--grid", type=int, default=128)
    p_scale.add_argument("--alpha", type=float, default=50e-6,
                         help="message latency [s]")
    p_scale.add_argument("--beta", type=float, default=1e-8,
                         help="per-byte cost [s/B]")
    p_scale.add_argument("--seed", type=int, default=0)
    p_scale.add_argument("--scheduler", choices=SCHEDULER_NAMES,
                         default=None,
                         help="execute-stage scheduler for the real backend "
                              "(placement only; prices are scheduler-"
                              "invariant bitwise)")
    p_scale.add_argument("--emit-trace", metavar="PREFIX", default=None,
                         help="after the sweep, re-run the largest P with the "
                              "tracer on and write PREFIX.trace.json + "
                              "PREFIX.metrics.json")

    p_trace = sub.add_parser(
        "trace",
        help="run one traced parallel pricing job; write Chrome-trace JSON "
             "(load in Perfetto / chrome://tracing) and a metrics snapshot",
    )
    p_trace.add_argument("--engine",
                         choices=default_registry().names(traceable=True),
                         default="mc")
    p_trace.add_argument("--p", type=int, default=8,
                         help="simulated processor count")
    p_trace.add_argument("--paths", type=int, default=20_000)
    p_trace.add_argument("--steps", type=int, default=64)
    p_trace.add_argument("--grid", type=int, default=64)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--out", default="trace_out/run",
                         help="output prefix (writes <out>.trace.json and "
                              "<out>.metrics.json)")
    p_trace.add_argument("--backend", choices=("serial", "thread", "process"),
                         default="serial",
                         help="real execution backend for the MC engine; "
                              "non-serial backends also write a wall-clock "
                              "<out>.workers.trace.json of per-worker task "
                              "spans")
    p_trace.add_argument("--fault-seed", type=int, default=None,
                         help="draw a FaultPlan from this seed (chaos trace); "
                              "omit for a fault-free run")
    p_trace.add_argument("--crash-rate", type=float, default=0.25)
    p_trace.add_argument("--straggler-rate", type=float, default=0.25)
    p_trace.add_argument("--policy", choices=("fail_fast", "retry", "degrade"),
                         default="retry")

    p_verify = sub.add_parser(
        "verify",
        help="run the correctness-verification suite: differential oracle, "
             "metamorphic properties, golden-master diff, determinism checks",
    )
    p_verify.add_argument("--golden", default="tests/golden/verify_corpus.json",
                          help="golden snapshot path (default: %(default)s)")
    p_verify.add_argument("--update", action="store_true",
                          help="rebaseline: overwrite the golden snapshot with "
                               "this run's prices instead of diffing")
    p_verify.add_argument("--report", metavar="PATH", default=None,
                          help="write a machine-readable JSON report here")
    p_verify.add_argument("--skip", action="append", default=[],
                          choices=("oracle", "metamorphic", "golden",
                                   "determinism"),
                          help="skip one section (repeatable)")

    p_book = sub.add_parser("portfolio", help="schedule a random book and "
                                              "compare policies")
    p_book.add_argument("--contracts", type=int, default=16)
    p_book.add_argument("--paths", type=int, default=20_000)
    p_book.add_argument("--ranks", type=int, default=4)
    p_book.add_argument("--seed", type=int, default=0)

    p_serve = sub.add_parser(
        "serve",
        help="run a request stream through the pricing service "
             "(cache + strip fusion + chunked map) and report throughput",
    )
    p_serve.add_argument("--requests", type=int, default=48,
                         help="stream length; beyond --contracts the stream "
                              "repeats contracts, exercising the cache")
    p_serve.add_argument("--contracts", type=int, default=16,
                         help="distinct contracts in the book")
    p_serve.add_argument("--paths", type=int, default=5_000,
                         help="MC paths per request")
    p_serve.add_argument("--backend", choices=("serial", "thread", "process"),
                         default="serial")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="backend worker count (default: os.cpu_count)")
    p_serve.add_argument("--batch", type=int, default=16,
                         help="max batch size")
    p_serve.add_argument("--chunksize", default="auto",
                         help='"auto", "none", or an int (tasks per dispatch)')
    p_serve.add_argument("--cache", type=int, default=256,
                         help="price-cache capacity (0 disables caching)")
    p_serve.add_argument("--repeat", type=int, default=2,
                         help="replay the stream this many times "
                              "(pass 2+ shows the cache-hit fast path)")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--min-strip", type=int, default=2,
                         help="smallest group of cache misses on one market "
                              "worth fusing into a contract strip (quotes "
                              "stay bitwise equal to single runs)")
    p_serve.add_argument("--book", choices=("portfolio", "strip"),
                         default="portfolio",
                         help="request book shape: a random portfolio "
                              "(heterogeneous models) or a strike strip on "
                              "one shared model (the batchable shape)")
    p_serve.add_argument("--ledger", default=None,
                         help="append one run-ledger record per executed "
                              "batch to this JSONL file")

    p_gate = sub.add_parser(
        "gateway",
        help="drive seeded traffic through the sharded admission-controlled "
             "gateway (virtual time) and report goodput / latency / shed",
    )
    p_gate.add_argument("--shards", type=int, default=4,
                        help="shard worker count (default %(default)s)")
    p_gate.add_argument("--overload", default="1x",
                        help='offered load as a multiple of all-miss '
                             'capacity, e.g. "2x" or "0.8" '
                             '(default %(default)s)')
    p_gate.add_argument("--duration", type=float, default=5.0,
                        help="traffic window in virtual seconds")
    p_gate.add_argument("--contracts", type=int, default=16,
                        help="distinct contracts in the traffic book")
    p_gate.add_argument("--paths", type=int, default=2_000,
                        help="MC paths per request (drives the cost model)")
    p_gate.add_argument("--max-queue", type=int, default=64,
                        help="per-shard per-lane queue bound")
    p_gate.add_argument("--seed", type=int, default=0)
    p_gate.add_argument("--book", choices=("strip", "portfolio", "risk"),
                        default="strip",
                        help='"risk" serves the seeded shocked-contract '
                             "book (implies repeated-book traffic and a "
                             'kind="risk" ledger record)')
    p_gate.add_argument("--repeat-book", action="store_true",
                        help="replay the same contracts (cache-hit traffic) "
                             "instead of unique all-miss requests")
    p_gate.add_argument("--priced", action="store_true",
                        help="actually price cache misses (bitwise-"
                             "deterministic price stream; slower)")
    p_gate.add_argument("--closed", type=int, default=0, metavar="CLIENTS",
                        help="closed loop with this many think-time clients "
                             "instead of open-loop Poisson arrivals")
    p_gate.add_argument("--think", type=float, default=0.01,
                        help="closed-loop client think time in seconds")
    p_gate.add_argument("--ledger", default=None,
                        help="append the run record to this JSONL ledger")

    p_risk = sub.add_parser(
        "risk",
        help="seeded scenario sweep: full-revaluation VaR/ES through the "
             "shared price cache, with scenarios/sec and hit-rate "
             "accounting",
    )
    p_risk.add_argument("--dim", type=int, default=2,
                        help="assets in the shared market (default "
                             "%(default)s)")
    p_risk.add_argument("--contracts", type=int, default=4,
                        help="contracts in the strike-ladder book")
    p_risk.add_argument("--scenarios", type=int, default=64,
                        help="scenario count for seeded generators")
    p_risk.add_argument("--generator", default="stress",
                        choices=("stress", "horizon", "historical", "axes"))
    p_risk.add_argument("--horizon", type=float, default=10.0,
                        help="risk horizon in trading days "
                             "(default %(default)s)")
    p_risk.add_argument("--paths", type=int, default=2_000,
                        help="MC paths per revaluation request")
    p_risk.add_argument("--seed", type=int, default=0)
    p_risk.add_argument("--p", type=int, default=1,
                        help="simulated processor count per request")
    p_risk.add_argument("--levels", default="0.95,0.99",
                        help="comma-separated confidence levels")
    p_risk.add_argument("--hedge", action="store_true",
                        help="also compute central-difference deltas and "
                             "delta-hedged tail measures")
    p_risk.add_argument("--ledger", default=None,
                        help="append the run records to this JSONL ledger")

    p_obs = sub.add_parser(
        "obs",
        help="run-ledger observability: summarize, diff (perf gate), "
             "profile to flamegraph collapsed stacks",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_report = obs_sub.add_parser(
        "report", help="per-(kind, engine, stage) timing summary of a "
                       "JSONL run ledger")
    p_report.add_argument("ledger", help="ledger file (JSONL of RunRecords)")
    p_report.add_argument("--csv", action="store_true",
                          help="emit CSV instead of the text table")

    p_diff = obs_sub.add_parser(
        "diff", help="compare two ledgers stage by stage; exit 1 when any "
                     "stage regresses past its fail band")
    p_diff.add_argument("base", help="baseline ledger (JSONL)")
    p_diff.add_argument("new", help="candidate ledger (JSONL)")
    p_diff.add_argument("--warn-margin", type=float, default=0.25,
                        help="warn band margin over 1.0 before noise "
                             "widening (default %(default)s)")
    p_diff.add_argument("--fail-ratio", type=float, default=2.0,
                        help="hard-fail ratio, never narrowed by noise "
                             "(default %(default)sx)")
    p_diff.add_argument("--noise-z", type=float, default=3.0,
                        help="how many baseline CVs widen the warn band "
                             "(default %(default)s)")
    p_diff.add_argument("--min-seconds", type=float, default=1e-4,
                        help="stages with baseline mean below this are "
                             "info-only (default %(default)s)")
    p_diff.add_argument("--csv", action="store_true",
                        help="emit CSV instead of the text table")

    p_flame = obs_sub.add_parser(
        "flame", help="run one pricing job under the sampling profiler and "
                      "write flamegraph collapsed stacks")
    p_flame.add_argument("--engine",
                         choices=default_registry().names(traceable=True),
                         default="mc")
    p_flame.add_argument("--p", type=int, default=4,
                         help="simulated processor count")
    p_flame.add_argument("--paths", type=int, default=100_000)
    p_flame.add_argument("--steps", type=int, default=64)
    p_flame.add_argument("--grid", type=int, default=64)
    p_flame.add_argument("--seed", type=int, default=0)
    p_flame.add_argument("--interval-ms", type=float, default=2.0,
                         help="sampling interval (default %(default)s ms)")
    p_flame.add_argument("--repeat", type=int, default=3,
                         help="price this many times to accumulate samples")
    p_flame.add_argument("--out", default="trace_out/profile.collapsed",
                         help="collapsed-stack output path (flamegraph.pl / "
                              "speedscope input)")
    return parser


def _cmd_price(args: argparse.Namespace) -> int:
    from repro.mc import MonteCarloEngine, QMCSobol
    from repro.workloads import basket_workload, rainbow_workload, spread_workload

    if args.contract == "basket":
        w = basket_workload(args.dim)
    elif args.contract == "rainbow":
        w = rainbow_workload()
    else:
        w = spread_workload()
    technique = QMCSobol(8) if args.qmc else None
    n = args.paths
    if args.qmc and n % 8:
        n += 8 - n % 8  # round up to the replicate count
    engine = MonteCarloEngine(n, technique=technique, seed=args.seed)
    result = engine.price(w.model, w.payoff, w.expiry)
    lo, hi = result.confidence_interval()
    print(f"contract : {w.name} (dim={w.dim}, expiry={w.expiry})")
    print(f"paths    : {result.n_paths} ({result.technique})")
    print(f"price    : {result.price:.6f} ± {result.stderr:.6f}")
    print(f"95% CI   : [{lo:.6f}, {hi:.6f}]")
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    from repro.utils import Table
    from repro.verify.contracts import default_corpus

    cases_by_family: dict[str, list[str]] = {}
    for case in default_corpus():
        for family in case.engines:
            cases_by_family.setdefault(family, []).append(case.name)

    registry = default_registry()
    table = Table(["engine", "kind", "capabilities", "sched", "max dim",
                   "corpus cases", "summary"],
                  title=f"{len(registry)} registered engine families")
    for spec in registry.specs():
        kind = "pipeline" if spec.pipeline is not None else "reference"
        caps = spec.capabilities
        max_dim = "-" if caps.max_dim is None else str(caps.max_dim)
        sched = ",".join(SCHEDULER_NAMES) if caps.schedulable else "static"
        table.add_row([spec.name, kind, ",".join(caps.flags()) or "-",
                       sched, max_dim,
                       str(len(cases_by_family.get(spec.name, []))),
                       spec.summary])
    if args.csv:
        from repro.perf.reporting import table_to_csv

        print(table_to_csv(table), end="")
    else:
        print(table.render())
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.parallel import MachineSpec
    from repro.perf import ScalingExperiment

    try:
        p_list = [int(tok) for tok in args.plist.split(",") if tok.strip()]
    except ValueError:
        print(f"error: --plist must be comma-separated integers, got {args.plist!r}",
              file=sys.stderr)
        return 2
    if not p_list or any(p <= 0 for p in p_list):
        print("error: --plist needs positive processor counts", file=sys.stderr)
        return 2
    spec = MachineSpec(alpha=args.alpha, beta=args.beta)
    registry = default_registry()
    scheduler = getattr(args, "scheduler", None)
    if scheduler not in (None, "static") and \
            args.engine not in registry.names(schedulable=True):
        print(f"error: engine {args.engine!r} is not schedulable; "
              f"--scheduler {scheduler} needs one of "
              f"{','.join(registry.names(schedulable=True))}",
              file=sys.stderr)
        return 2
    w, pricer, label = registry.get(args.engine).scaling(args, spec)
    if scheduler is not None:
        pricer.scheduler = scheduler
    exp = ScalingExperiment(pricer, w.model, w.payoff, w.expiry, label=label)
    print(exp.report(p_list))
    if args.emit_trace:
        from repro.obs import Tracer

        # Re-run the largest configuration with the tracer attached; the
        # sweep itself stays untraced so its timings are undisturbed.
        pricer.tracer = Tracer()
        pricer.record = True
        result = pricer.price(w.model, w.payoff, w.expiry, max(p_list))
        print()
        _write_trace_artifacts(pricer.tracer, result, args.emit_trace)
    return 0


def _write_trace_artifacts(tracer, result, out_prefix: str) -> None:
    """Write ``<prefix>.trace.json`` + ``<prefix>.metrics.json`` for one
    traced run and print the span summary."""
    from repro.obs import metrics_from_report, metrics_from_run, summary_table, write_chrome_trace
    from repro.perf.reporting import write_text

    trace_path = write_chrome_trace(tracer, f"{out_prefix}.trace.json")
    cluster = result.meta.get("cluster")
    registry = metrics_from_report(cluster.report()) if cluster is not None else None
    registry = metrics_from_run(result, registry)
    metrics_path = write_text(f"{out_prefix}.metrics.json",
                              registry.to_json() + "\n")
    print(summary_table(tracer))
    print(f"trace   : {trace_path} (open in Perfetto / chrome://tracing)")
    print(f"metrics : {metrics_path}")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import Tracer, write_chrome_trace
    from repro.parallel import FaultPlan
    from repro.parallel.backends import make_backend

    faults = None
    if args.fault_seed is not None:
        faults = FaultPlan.random(args.fault_seed, args.p,
                                  crash_rate=args.crash_rate,
                                  straggler_rate=args.straggler_rate)
    tracer = Tracer()  # simulated timeline (explicit timestamps only)
    worker_tracer = None
    backend = None
    spec = default_registry().get(args.engine)
    try:
        if spec.uses_backend:
            if args.backend != "serial":
                worker_tracer = Tracer()  # wall clock: keep separate
            backend = make_backend(args.backend, tracer=worker_tracer)
        w, pricer = spec.trace(args, faults=faults, policy=args.policy,
                               tracer=tracer, backend=backend)
        result = pricer.price(w.model, w.payoff, w.expiry, args.p)
    finally:
        if backend is not None:
            backend.close()

    print(f"engine   : {args.engine} — {w.name}, P={args.p}")
    print(f"price    : {result.price:.6f} ± {result.stderr:.6f}")
    print(f"sim time : {result.sim_time:.6g} s "
          f"(compute {result.compute_time:.3g}, comm {result.comm_time:.3g}, "
          f"idle {result.idle_time:.3g})")
    report = result.meta.get("fault_report")
    if report is not None:
        print(f"faults   : {report.summary()}")
    print()
    _write_trace_artifacts(tracer, result, args.out)
    if worker_tracer is not None and len(worker_tracer):
        path = write_chrome_trace(worker_tracer,
                                  f"{args.out}.workers.trace.json")
        print(f"workers : {path} (wall-clock per-task spans, "
              f"{args.backend} backend)")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import json as _json

    from repro.verify import (build_snapshot, default_corpus, diff_golden,
                              load_snapshot, run_batched_replay,
                              run_determinism, run_metamorphic, run_oracle,
                              save_snapshot)
    from repro.errors import ValidationError

    skip = set(args.skip)
    corpus = default_corpus()
    report_doc: dict = {}
    ok = True

    snapshot = None
    if "golden" not in skip and not args.update:
        # Fail fast on a missing/stale snapshot before pricing anything.
        try:
            snapshot = load_snapshot(args.golden)
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    oracle = None
    if "oracle" not in skip or "golden" not in skip:
        # One pricing pass feeds both the cross-engine check and the golden
        # diff — the corpus is the expensive part, not the comparisons.
        oracle = run_oracle(corpus)
    if "oracle" not in skip:
        report_doc["oracle"] = oracle.to_dict()
        n_cells = sum(len(c) for c in oracle.cells.values())
        print(f"oracle       : {len(oracle.cells)} cases, {n_cells} engine "
              f"cells, {len(oracle.discrepancies)} discrepancies")
        for d in oracle.discrepancies:
            print(f"  FAIL {d}")
        ok &= oracle.ok

    if "metamorphic" not in skip:
        props = run_metamorphic()
        report_doc["metamorphic"] = [p.to_dict() for p in props]
        bad = [p for p in props if not p.ok]
        print(f"metamorphic  : {len(props)} properties, {len(bad)} violated")
        for p in bad:
            print(f"  FAIL {p}")
        ok &= not bad

    if "golden" not in skip:
        if args.update:
            save_snapshot(build_snapshot(corpus, cells_by_case=oracle.cells),
                          args.golden)
            print(f"golden       : rebaselined -> {args.golden}")
        else:
            diff = diff_golden(snapshot, corpus, cells_by_case=oracle.cells)
            report_doc["golden"] = diff.to_dict()
            print(f"golden       : {len(diff.deltas)} cells diffed, "
                  f"{len(diff.failures)} failures")
            for d in diff.failures:
                print(f"  FAIL {d}")
            ok &= diff.ok

    # Reuse the oracle's cells as the bitwise targets when it ran;
    # otherwise the replay recomputes the reference prices itself.
    cells = oracle.cells if oracle is not None else None
    replays = run_batched_replay(corpus, cells_by_case=cells)
    report_doc["batched"] = [
        {"case": r.case, "engine": r.engine, "ok": r.ok,
         "skipped": r.skipped, "detail": dict(r.detail)}
        for r in replays
    ]
    bad = [r for r in replays if not r.ok]
    n_skip = sum(1 for r in replays if r.skipped)
    print(f"batched      : {len(replays)} fused-cell replays "
          f"({n_skip} skipped), {len(bad)} mismatched")
    for r in bad:
        print(f"  FAIL {r}")
    ok &= not bad

    if "determinism" not in skip:
        checks = run_determinism()
        report_doc["determinism"] = [c.to_dict() for c in checks]
        bad = [c for c in checks if not c.ok]
        print(f"determinism  : {len(checks)} checks, {len(bad)} "
              f"nondeterministic")
        for c in bad:
            print(f"  FAIL {c}")
        ok &= not bad

    report_doc["ok"] = bool(ok)
    if args.report:
        from repro.perf.reporting import write_text

        path = write_text(args.report, _json.dumps(report_doc, indent=2,
                                                   sort_keys=True) + "\n")
        print(f"report       : {path}")
    print("verify       :", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_portfolio(args: argparse.Namespace) -> int:
    from repro.engine import PortfolioPricer
    from repro.utils import Table
    from repro.workloads import random_portfolio

    book = random_portfolio(args.contracts, dim=4, seed=args.seed)
    table = Table(["schedule", "makespan [s]", "imbalance", "book value"],
                  title=f"{args.contracts} contracts on {args.ranks} ranks",
                  floatfmt=".4g")
    for sched in ("block", "cyclic", "lpt", "dynamic"):
        run = PortfolioPricer(args.paths, schedule=sched,
                              seed=args.seed).run(book, args.ranks)
        table.add_row([sched, run.sim_time, run.imbalance, run.total_value])
    print(table.render())
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "report":
        return _cmd_obs_report(args)
    if args.obs_command == "diff":
        return _cmd_obs_diff(args)
    return _cmd_obs_flame(args)


def _render(table, as_csv: bool) -> None:
    if as_csv:
        from repro.perf.reporting import table_to_csv

        print(table_to_csv(table), end="")
    else:
        print(table.render())


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.errors import ValidationError
    from repro.obs import read_ledger, report_table, summarize_ledger

    try:
        stats = summarize_ledger(read_ledger(args.ledger))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _render(report_table(stats, title=f"run-ledger summary — {args.ledger}"),
            args.csv)
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.errors import ValidationError
    from repro.obs import diff_ledgers, diff_table, read_ledger

    try:
        entries = diff_ledgers(read_ledger(args.base), read_ledger(args.new),
                               warn_margin=args.warn_margin,
                               fail_ratio=args.fail_ratio,
                               noise_z=args.noise_z,
                               min_seconds=args.min_seconds)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _render(diff_table(entries, title=f"{args.base} -> {args.new}"), args.csv)
    n_fail = sum(1 for e in entries if e.status == "fail")
    n_warn = sum(1 for e in entries if e.status == "warn")
    print(f"diff     : {len(entries)} stages compared, {n_warn} warnings, "
          f"{n_fail} failures")
    for e in entries:
        if e.status in ("fail", "warn"):
            print(f"  {e.status.upper()} {e}")
    return 1 if n_fail else 0


def _cmd_obs_flame(args: argparse.Namespace) -> int:
    from repro.obs import SamplingProfiler

    spec = default_registry().get(args.engine)
    w, pricer = spec.trace(args, faults=None, policy=None, tracer=None,
                           backend=None)
    prof = SamplingProfiler(args.interval_ms / 1e3)
    pricer.profiler = prof
    result = None
    for _ in range(max(args.repeat, 1)):
        result = pricer.price(w.model, w.payoff, w.expiry, args.p)
    prof.stop()
    path = prof.write_collapsed(args.out)
    print(f"engine   : {args.engine} — {w.name}, P={args.p}, "
          f"{args.repeat} run(s)")
    print(f"price    : {result.price:.6f} ± {result.stderr:.6f}")
    print(f"samples  : {prof.n_samples} at {args.interval_ms:g} ms "
          f"({len(prof.samples)} distinct stacks)")
    for stack, count in prof.top(5):
        leaf = stack.rsplit(";", 1)[-1]
        print(f"  {count:6d}  {leaf}  [{stack.split(';', 1)[0]}]")
    print(f"collapsed: {path} (flamegraph.pl / speedscope input)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.obs import MetricsRegistry, RunLedger
    from repro.parallel.backends import make_backend
    from repro.serve import PriceCache, PricingRequest, PricingService
    from repro.utils import Table
    from repro.workloads import random_portfolio, strike_strip

    if args.chunksize == "auto":
        chunksize: int | str | None = "auto"
    elif args.chunksize == "none":
        chunksize = None
    else:
        try:
            chunksize = int(args.chunksize)
        except ValueError:
            print(f"error: --chunksize must be 'auto', 'none' or an int, "
                  f"got {args.chunksize!r}", file=sys.stderr)
            return 2

    if args.book == "strip":
        # One shared model and one shared seed: the service fuses each
        # batch's misses into a single contract strip.
        book = strike_strip(args.contracts)
        seed_of = lambda i: args.seed  # noqa: E731
    else:
        book = random_portfolio(args.contracts, dim=4, seed=args.seed)
        seed_of = lambda i: args.seed + i % len(book)  # noqa: E731
    # Stream longer than the book → repeated contracts are true duplicates
    # (same seed), so the cache and in-batch dedup both get exercised.
    requests = [
        PricingRequest(book[i % len(book)], engine="mc", n_paths=args.paths,
                       seed=seed_of(i), p=2,
                       name=book[i % len(book)].name)
        for i in range(args.requests)
    ]

    metrics = MetricsRegistry()
    cache = PriceCache(args.cache) if args.cache > 0 else None
    backend = make_backend(args.backend, args.workers)
    ledger = RunLedger(args.ledger) if args.ledger else None
    table = Table(["pass", "req/s", "batches", "map calls", "hit rate",
                   "p50 [ms]", "p99 [ms]", "book value"],
                  title=(f"{args.requests} requests ({args.contracts} distinct "
                         f"{args.book}) — {args.backend} backend, "
                         f"batch={args.batch}, chunksize={args.chunksize}"),
                  floatfmt=".4g")
    latency = metrics.histogram("serve.batch_latency_s")
    try:
        with PricingService(backend, cache=cache, max_batch=args.batch,
                            chunksize=chunksize, metrics=metrics,
                            ledger=ledger, min_strip=args.min_strip) as svc:
            batches0 = maps0 = 0
            hits0 = lookups0 = 0.0
            for rep in range(max(args.repeat, 1)):
                t0 = time.perf_counter()
                quotes = svc.price_many(requests)
                wall = time.perf_counter() - t0
                batches = svc.batches
                maps = svc.map_calls
                # Hit rate comes from the metrics registry (the cache
                # feeds serve.cache_hits / serve.cache_misses counters).
                hits = metrics.counter("serve.cache_hits").value
                lookups = hits + metrics.counter("serve.cache_misses").value
                rate = ((hits - hits0) / (lookups - lookups0)
                        if lookups > lookups0 else 0.0)
                table.add_row([f"{rep + 1}", len(quotes) / max(wall, 1e-9),
                               batches - batches0, maps - maps0, rate,
                               latency.quantile(0.5) * 1e3,
                               latency.quantile(0.99) * 1e3,
                               sum(q.price for q in quotes)])
                batches0, maps0, hits0, lookups0 = batches, maps, hits, lookups
    finally:
        backend.close()
    strips = metrics.counter("serve.strips").value
    if strips:
        fused = metrics.histogram("serve.strip_contracts").total
        table.title += (f", {strips:.0f} fused strips covering {fused:.0f} "
                        f"contracts")
    print(table.render())
    dedup = metrics.counter("serve.deduped").value
    if dedup:
        print(f"dedup    : {dedup:.0f} in-batch duplicate requests fanned out")
    if ledger is not None:
        print(f"ledger   : {ledger.appended} batch records -> {ledger.path}")
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    from repro.gateway import (CostModel, LoadgenConfig, capacity,
                               open_loop_schedule, run_closed_loop,
                               run_schedule)
    from repro.obs import MetricsRegistry, RunLedger
    from repro.utils import Table

    text = str(args.overload).rstrip("xX")
    try:
        overload = float(text)
    except ValueError:
        print(f'error: --overload must look like "2x" or "0.8", got '
              f"{args.overload!r}", file=sys.stderr)
        return 2
    if overload <= 0:
        print("error: --overload must be positive", file=sys.stderr)
        return 2

    cost = CostModel()
    # Risk traffic is revaluations of a fixed shocked book — always
    # repeated-book (the cache-hit shape is the point of the tier).
    repeat = args.repeat_book or args.book == "risk"
    probe = LoadgenConfig(seed=args.seed, book=args.book,
                          n_contracts=args.contracts, n_paths=args.paths,
                          duration_s=args.duration, unique=not repeat)
    cap = capacity(probe, cost, args.shards)
    # Deadlines are drawn in service-time multiples: scale them by the
    # all-miss service time of this path budget so "a deadline of 8"
    # means eight service times of patience at any --paths setting.
    miss_s = cost.base_s + cost.per_path_s * args.paths
    cfg = LoadgenConfig(seed=args.seed, rate=overload * cap,
                        duration_s=args.duration, book=args.book,
                        n_contracts=args.contracts, n_paths=args.paths,
                        unique=not repeat,
                        deadline_scale_s=miss_s)
    metrics = MetricsRegistry()
    ledger = RunLedger(args.ledger) if args.ledger else None
    if args.closed > 0:
        result = run_closed_loop(cfg, n_shards=args.shards, cost=cost,
                                 n_clients=args.closed, think_s=args.think,
                                 max_queue=args.max_queue, priced=args.priced,
                                 metrics=metrics, ledger=ledger)
        mode = f"closed loop, {args.closed} clients"
    else:
        result = run_schedule(open_loop_schedule(cfg), n_shards=args.shards,
                              cost=cost, duration_s=cfg.duration_s,
                              max_queue=args.max_queue, priced=args.priced,
                              metrics=metrics, ledger=ledger)
        mode = f"open loop at {cfg.rate:.1f} req/s ({overload:g}x capacity)"

    print(f"gateway  : {args.shards} shards, {mode}")
    print(f"capacity : {cap:.1f} req/s all-miss "
          f"({'unique' if cfg.unique else 'repeated-book'} traffic)")
    print(f"offered  : {result.offered}   admitted {result.admitted}   "
          f"completed {result.completed}")
    shed = ", ".join(f"{k}={v}" for k, v in sorted(result.shed.items()))
    print(f"goodput  : {result.goodput:.1f} req/s   "
          f"shed rate {result.shed_rate:.1%}"
          + (f"   ({shed})" if shed else ""))
    print(result.lane_table(title=f"latency by lane — seed {args.seed}")
          .render())
    shards = Table(["shard", "max depth", "hits", "misses", "hit rate"],
                   title="per-shard queues and caches", floatfmt=".3g")
    for s in range(args.shards):
        hits = metrics.counter("serve.cache_hits", shard=str(s)).value
        misses = metrics.counter("serve.cache_misses", shard=str(s)).value
        shards.add_row([s, result.max_depths[s], int(hits), int(misses),
                        hits / (hits + misses) if hits + misses else 0.0])
    print(shards.render())
    if args.priced:
        print(f"digests  : prices {result.price_stream_digest()}  "
              f"decisions {result.decision_log_digest()}")
    if args.book == "risk":
        from repro.obs.ledger import active_ledger
        from repro.risk.bridge import risk_run_record

        n_base = min(args.contracts, 4)
        n_scen = (args.contracts + n_base - 1) // n_base
        record = risk_run_record(result, n_scenarios=n_scen,
                                 n_contracts=n_base, engine=cfg.engine,
                                 seed=args.seed)
        book_ledger = ledger if ledger is not None else active_ledger()
        if book_ledger is not None:
            book_ledger.append(record)
        print(f"risk     : {n_scen} scenarios x {n_base} base contracts, "
              f"{record.extra['scenarios_per_s']:.1f} scenarios/s, "
              f"hit rate {record.extra['hit_rate']:.1%}")
    if ledger is not None:
        print(f"ledger   : {ledger.appended} record(s) -> {ledger.path}")
    return 0


def _cmd_risk(args: argparse.Namespace) -> int:
    from repro.obs import MetricsRegistry, RunLedger
    from repro.risk import (RiskConfig, build_scenarios, hedged_pnl,
                            portfolio_deltas, revalue_book, var_es)
    from repro.serve import PriceCache, PricingService
    from repro.utils import Table
    from repro.workloads.generators import strike_strip

    try:
        levels = tuple(float(t) for t in args.levels.split(","))
    except ValueError:
        print(f'error: --levels must look like "0.95,0.99", got '
              f"{args.levels!r}", file=sys.stderr)
        return 2
    cfg = RiskConfig(dim=args.dim, n_contracts=args.contracts,
                     n_scenarios=args.scenarios, generator=args.generator,
                     horizon=args.horizon / 252.0, n_paths=args.paths,
                     seed=args.seed, p=args.p, levels=levels,
                     hedge=args.hedge)
    metrics = MetricsRegistry()
    ledger = RunLedger(args.ledger) if args.ledger else None

    book = strike_strip(cfg.n_contracts, dim=cfg.dim)
    scenarios = build_scenarios(cfg, book[0].model)
    cache = PriceCache(max(64, 4 * cfg.n_contracts * (len(scenarios) + 1)),
                       metrics=metrics)
    passes = Table(["pass", "scenarios/s", "hit rate", "wall s"],
                   title="sweep passes (shared cache)", floatfmt=".3g")
    report = None
    with PricingService(cache=cache, max_batch=cfg.n_contracts,
                        metrics=metrics, ledger=ledger) as service:
        for label in ("cold", "cache-hot"):
            report = revalue_book(book, scenarios, engine=cfg.engine,
                                  n_paths=cfg.n_paths, seed=cfg.seed,
                                  p=cfg.p, levels=cfg.levels,
                                  service=service, metrics=metrics,
                                  ledger=ledger)
            passes.add_row([label, report.scenarios_per_s, report.hit_rate,
                            report.wall_s])
        if cfg.hedge:
            deltas = portfolio_deltas(book, service=service,
                                      engine=cfg.engine, n_paths=cfg.n_paths,
                                      seed=cfg.seed, p=cfg.p)
            report.deltas = tuple(float(d) for d in deltas)
            report.hedged = hedged_pnl(report, deltas, book[0].model.spots,
                                       scenarios)

    print(f"risk     : {cfg.generator} generator, {len(scenarios)} scenarios"
          f" x {cfg.n_contracts} contracts (dim {cfg.dim}), seed {cfg.seed}")
    print(f"base     : {report.base_value:.4f}   "
          f"pnl digest {report.pnl_digest()}")
    print(passes.render())
    print(report.table(
        title=f"VaR / ES — full revaluation, {cfg.engine}").render())
    if report.hedged is not None:
        deltas = ", ".join(f"{d:.3f}" for d in report.deltas)
        print(f"deltas   : [{deltas}]")
        for level in sorted(report.levels):
            hv, he = var_es(report.hedged, level)
            print(f"hedged   : {level:.0%} VaR {hv:.4f}  ES {he:.4f}")
    if ledger is not None:
        print(f"ledger   : {ledger.appended} record(s) -> {ledger.path}")
    return 0


def main(argv: Sequence[str]) -> int:
    """Entry point on the arguments after the program name; returns a
    process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "price":
        return _cmd_price(args)
    if args.command == "engines":
        return _cmd_engines(args)
    if args.command == "scaling":
        return _cmd_scaling(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "gateway":
        return _cmd_gateway(args)
    if args.command == "risk":
        return _cmd_risk(args)
    if args.command == "obs":
        return _cmd_obs(args)
    return _cmd_portfolio(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(sys.argv[1:]))

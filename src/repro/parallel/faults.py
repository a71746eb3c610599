"""Deterministic fault injection and resilience for the parallel stack.

The paper's evaluation assumes a fault-free multiprocessor; a production
pricing service does not get one. This module adds the failure modes that
dominate wall-clock behaviour on real clusters (worker loss, stragglers,
lost/corrupted result messages, timeouts) in the same spirit as the rest
of the repo: **deterministically**. A :class:`FaultPlan` is a pure
function of its seed, so a faulty run is exactly as reproducible as a
fault-free one — two runs with the same fault seed produce byte-identical
:class:`RunReport`\\ s and prices.

Three layers:

* **Plans** — :class:`FaultPlan` holds :class:`FaultEvent`\\ s (which rank,
  which kind, which attempt, transient or permanent). ``FaultPlan.random``
  draws a plan from a seed; plans are also writable by hand for targeted
  chaos tests.
* **Policies** — :class:`FaultPolicy` says what to do when a fault is
  detected: ``fail_fast`` (raise), ``retry`` (exponential backoff, bounded
  attempts; recovered runs must equal the fault-free run *bitwise*), or
  ``degrade`` (exhausted ranks are dropped; estimators reprice with the
  survivors and the reported CI widens with the reduced sample).
* **Execution** — :func:`resilient_map` runs rank tasks through any
  :class:`~repro.parallel.backends.ExecutionBackend` with per-attempt
  injection and retry, returning results plus a :class:`RunReport`.
  :func:`plan_report` produces the same report purely from (plan, policy)
  for the simulated engines, and :func:`charge_report` prices the recovery
  (wasted attempts, backoff waits) onto a
  :class:`~repro.parallel.simcluster.SimulatedCluster` timeline.

The retry path never consumes an RNG substream twice: every attempt
executes a deep copy of the rank's task, so a recovered transient crash
reproduces the fault-free draws exactly (asserted by the chaos suite).
"""

from __future__ import annotations

import copy
import enum
import json
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import FaultError, ValidationError
from repro.parallel.sched import SchedStats, resolve_scheduler
from repro.utils.validation import (check_non_negative, check_positive_int,
                                    check_probability)

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "FaultPolicy",
    "RankAttempt",
    "RunReport",
    "resilient_map",
    "plan_report",
    "charge_report",
    "simulate_recovery",
]


class FaultKind(enum.Enum):
    """What goes wrong.

    ``CRASH``     — the worker dies before producing a result.
    ``STRAGGLER`` — the rank runs, but ``slowdown``× slower (never a
                    failure by itself; it can still trip a timeout).
    ``DROP``      — the work completes but the result message is lost.
    ``CORRUPT``   — the result arrives but fails its checksum; it is
                    discarded at the receiver (never delivered silently).
    """

    CRASH = "crash"
    STRAGGLER = "straggler"
    DROP = "drop"
    CORRUPT = "corrupt"


#: Failure kinds (stragglers slow a rank but do not fail an attempt).
_FAILURE_KINDS = (FaultKind.CRASH, FaultKind.DROP, FaultKind.CORRUPT)

#: Canonical detail strings, shared by the real and simulated paths so
#: their reports compare byte-for-byte.
_DETAILS = {
    "crash": "injected crash before result",
    "drop": "result dropped in transit",
    "corrupt": "payload failed checksum at receiver",
}


@dataclass(frozen=True)
class FaultEvent:
    """One planned fault.

    ``attempt`` is the 0-based attempt index the fault strikes; a
    ``permanent`` fault strikes every attempt from ``attempt`` on (a dead
    node), a transient one strikes exactly once (a lost heartbeat).
    ``slowdown`` applies to stragglers only and multiplies the rank's
    compute time on the simulated machine.
    """

    rank: int
    kind: FaultKind
    attempt: int = 0
    permanent: bool = False
    slowdown: float = 3.0

    def __post_init__(self):
        if self.rank < 0:
            raise ValidationError(f"rank must be non-negative, got {self.rank}")
        if self.attempt < 0:
            raise ValidationError(f"attempt must be non-negative, got {self.attempt}")
        if not isinstance(self.kind, FaultKind):
            object.__setattr__(self, "kind", FaultKind(self.kind))
        if self.kind is FaultKind.STRAGGLER and self.slowdown < 1.0:
            raise ValidationError(
                f"straggler slowdown must be >= 1, got {self.slowdown}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults for one run.

    Plans are immutable value objects: equal seeds give equal plans, and
    everything downstream (reports, prices, simulated timelines) is a pure
    function of the plan, so chaos runs are byte-reproducible.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

    # -- construction -------------------------------------------------------

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan (fault-free run)."""
        return cls()

    @classmethod
    def single_crash(cls, rank: int, *,
                     permanent: bool = False) -> "FaultPlan":
        """One crash on one rank's first attempt — the canonical chaos-test
        plan."""
        return cls(events=(FaultEvent(rank, FaultKind.CRASH,
                                      permanent=permanent),))

    @classmethod
    def random(
        cls,
        seed: int,
        p: int,
        *,
        crash_rate: float = 0.0,
        straggler_rate: float = 0.0,
        drop_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        permanent_rate: float = 0.0,
    ) -> "FaultPlan":
        """Draw a plan from ``seed``: per rank, independent Bernoulli draws
        per fault kind, in a fixed order, from a fixed-algorithm generator —
        so the plan is a pure function of the arguments. A straggler runs
        1x to 4x slower, uniformly."""
        check_positive_int("p", p)
        for name, rate in (("crash_rate", crash_rate),
                           ("straggler_rate", straggler_rate),
                           ("drop_rate", drop_rate),
                           ("corrupt_rate", corrupt_rate),
                           ("permanent_rate", permanent_rate)):
            check_probability(name, rate)
        rng = np.random.Generator(np.random.Philox(seed))
        events: list[FaultEvent] = []
        for r in range(p):
            if rng.random() < crash_rate:
                events.append(FaultEvent(
                    r, FaultKind.CRASH,
                    permanent=bool(rng.random() < permanent_rate)))
            if rng.random() < drop_rate:
                events.append(FaultEvent(r, FaultKind.DROP))
            if rng.random() < corrupt_rate:
                events.append(FaultEvent(r, FaultKind.CORRUPT))
            if rng.random() < straggler_rate:
                slow = 1.0 + float(rng.random()) * 3.0
                events.append(FaultEvent(r, FaultKind.STRAGGLER, slowdown=slow))
        return cls(events=tuple(events), seed=seed)

    # -- queries ------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.events

    def fault_for(self, rank: int, attempt: int) -> FaultEvent | None:
        """The failure striking ``(rank, attempt)``, if any (stragglers are
        not failures and are reported via :meth:`slowdown`)."""
        for ev in self.events:
            if ev.rank != rank or ev.kind not in _FAILURE_KINDS:
                continue
            if attempt == ev.attempt or (ev.permanent and attempt >= ev.attempt):
                return ev
        return None

    def slowdown(self, rank: int) -> float:
        """Combined straggler slowdown factor for ``rank`` (1.0 = nominal)."""
        factor = 1.0
        for ev in self.events:
            if ev.rank == rank and ev.kind is FaultKind.STRAGGLER:
                factor *= ev.slowdown
        return factor


@dataclass(frozen=True)
class FaultPolicy:
    """What the run does about detected faults.

    ``mode``
        * ``"fail_fast"`` — first fault raises :class:`FaultError`.
        * ``"retry"`` — failed attempts are retried (fresh task copy) up to
          ``max_retries`` times with exponential backoff; exhaustion raises.
        * ``"degrade"`` — like retry, but an exhausted rank is *dropped*:
          estimators reprice with the survivors and the reported CI widens
          with the reduced sample size. Deterministic (bit-identical)
          engines cannot degrade and raise instead.
    ``backoff_base`` / ``backoff_factor``
        Retry ``k`` waits ``backoff_base · backoff_factor^(k−1)`` seconds
        (0 by default so test suites stay fast; the wait is always recorded
        and charged to the simulated timeline regardless).
    ``timeout``
        Per-attempt wall-clock budget on real backends; attempts observed
        to exceed it are treated as failures (detected at completion —
        cooperative, not preemptive).
    ``straggler_sleep``
        Real seconds of injected delay per straggler slowdown unit on real
        backends (0 keeps chaos tests fast; the *simulated* machine always
        applies the slowdown factor).
    """

    mode: str = "retry"
    max_retries: int = 3
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    timeout: float | None = None
    straggler_sleep: float = 0.0

    def __post_init__(self):
        if self.mode not in ("fail_fast", "retry", "degrade"):
            raise ValidationError(
                f"mode must be 'fail_fast', 'retry' or 'degrade', got {self.mode!r}"
            )
        if self.max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {self.max_retries}")
        check_non_negative("backoff_base", self.backoff_base)
        if self.backoff_factor < 1.0:
            raise ValidationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValidationError(f"timeout must be positive, got {self.timeout}")
        check_non_negative("straggler_sleep", self.straggler_sleep)

    @classmethod
    def parse(cls, value) -> "FaultPolicy":
        """Accept a policy object, a mode string, or None (defaults)."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(mode=value)
        raise ValidationError(f"cannot interpret {value!r} as a FaultPolicy")

    def backoff_for(self, attempt: int) -> float:
        """Backoff slept before 0-based ``attempt`` (0 for the first)."""
        if attempt <= 0:
            return 0.0
        return self.backoff_base * self.backoff_factor ** (attempt - 1)


@dataclass(frozen=True)
class RankAttempt:
    """One attempt of one rank: its outcome and recovery bookkeeping.

    ``outcome`` is ``"ok"`` or a failure tag (``"crash"``, ``"drop"``,
    ``"corrupt"``, ``"timeout"``, ``"error"``). ``backoff`` is the
    exponential wait that preceded the attempt; ``duration`` is measured
    wall time (excluded from the canonical serialization, which must be
    byte-stable across runs).
    """

    rank: int
    attempt: int
    outcome: str
    detail: str = ""
    backoff: float = 0.0
    duration: float = 0.0


@dataclass(frozen=True)
class RunReport:
    """Per-rank attempt ledger of one resilient run.

    The simulated engines attach it to ``ParallelRunResult.meta["fault_report"]``
    so fault-annotated timelines and tables can be produced after the fact.

    ``run_id`` correlates this report with the obs layer: the pipeline
    runner passes the same id into the run's ledger record and the
    tracer's fault/retry instants, so a retried task in a trace joins to
    its ledger row. Like wall ``duration``, it is excluded from the
    canonical serialization — two replays of one (plan, policy) must stay
    byte-identical even though each replay gets a fresh id.

    ``sched`` (a :class:`~repro.parallel.sched.SchedStats`; ``None`` on
    a :func:`plan_report`, which executes nothing) records how the
    scheduler moved the surviving attempts between workers. Excluded from
    the canonical serialization for the same reason as ``run_id``: on real
    backends the steal schedule is a wall-clock race, while the *results*
    stay bitwise.
    """

    p: int
    mode: str
    attempts: tuple[RankAttempt, ...] = ()
    lost_ranks: tuple[int, ...] = ()
    run_id: str | None = None
    sched: SchedStats | None = None

    @property
    def n_retries(self) -> int:
        """Total retried attempts across all ranks."""
        return sum(1 for a in self.attempts if a.attempt > 0)

    @property
    def recovered_ranks(self) -> tuple[int, ...]:
        """Ranks that failed at least once but ultimately succeeded."""
        failed = {a.rank for a in self.attempts if a.outcome != "ok"}
        ok = {a.rank for a in self.attempts if a.outcome == "ok"}
        return tuple(sorted(failed & ok))

    @property
    def degraded(self) -> bool:
        return bool(self.lost_ranks)

    @property
    def faults_injected(self) -> int:
        return sum(1 for a in self.attempts if a.outcome != "ok")

    def to_dict(self) -> dict:
        """Stable dict form; wall timings and ``run_id`` are excluded
        because they vary run-to-run while everything else must be
        byte-identical."""
        attempts = [
            {
                "rank": a.rank,
                "attempt": a.attempt,
                "outcome": a.outcome,
                "detail": a.detail,
                "backoff": a.backoff,
            }
            for a in sorted(self.attempts, key=lambda x: (x.rank, x.attempt))
        ]
        return {
            "p": self.p,
            "mode": self.mode,
            "lost_ranks": list(self.lost_ranks),
            "attempts": attempts,
        }

    def to_json(self) -> str:
        """Canonical JSON — byte-identical for identical (plan, policy)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def summary(self) -> str:
        return (
            f"{self.mode}: {self.faults_injected} fault(s), "
            f"{self.n_retries} retr{'y' if self.n_retries == 1 else 'ies'}, "
            f"{len(self.recovered_ranks)} recovered, "
            f"{len(self.lost_ranks)} lost of {self.p} rank(s)"
        )


# ---------------------------------------------------------------------------
# Real execution: resilient map over any backend.
# ---------------------------------------------------------------------------


def _guarded_call(args):
    """Module-level attempt wrapper (picklable for the process backend).

    Never raises: real worker exceptions become ``("fault", ...)`` outcomes
    so one bad rank cannot abort (or wedge) a whole pool ``map``.
    """
    worker, task, inject, sleep_s = args
    t0 = time.perf_counter()
    try:
        if inject == "crash":
            return ("fault", ("crash", _DETAILS["crash"]), 0.0)
        if sleep_s > 0.0:
            time.sleep(sleep_s)
        result = worker(task)
        dt = time.perf_counter() - t0
        if inject == "drop":
            return ("fault", ("drop", _DETAILS["drop"]), dt)
        if inject == "corrupt":
            return ("fault", ("corrupt", _DETAILS["corrupt"]), dt)
        return ("ok", result, dt)
    except Exception as exc:  # noqa: BLE001 — any worker failure is a fault
        dt = time.perf_counter() - t0
        return ("fault", ("error", f"{type(exc).__name__}: {exc}"), dt)


def resilient_map(backend, worker, tasks, *, plan: FaultPlan | None = None,
                  policy: FaultPolicy | str | None = None,
                  chunksize: int | str | None = None,
                  run_id: str | None = None, scheduler=None,
                  costs=None):
    """Map ``worker`` over ``tasks`` with fault injection and recovery.

    Returns ``(results, report)`` where ``results[r]`` is rank r's value
    (``None`` for ranks lost under ``degrade``). Every attempt runs a
    **deep copy** of its task, so a retry replays exactly the same RNG
    stream as the failed attempt — recovered runs equal fault-free runs
    bitwise.

    The backend's own tracer, if any, receives a
    wall-clock instant event per detected fault, retry and degraded rank,
    on the failing rank's track — so a real-backend trace shows *when*
    recovery machinery fired next to the worker task spans.

    ``chunksize`` is forwarded to every underlying ``backend.map`` —
    transport only: injection, retries and results are per-rank whatever
    the chunking, so a chunked recovered run still equals the fault-free
    run bitwise.

    ``run_id`` (optional) is stamped onto the returned
    :class:`RunReport` and every fault/retry/degrade instant event, so
    traces and the run ledger correlate by id. It never enters the
    report's canonical serialization.

    ``scheduler`` (a :class:`~repro.parallel.sched.Scheduler`, strategy
    name, or ``None`` for static chunks) decides how each round's attempt
    batch meets the workers. Injection stays keyed by
    **task id** (``plan.fault_for(r, attempt)``), not by worker placement,
    so a stolen task carries its fault with it and a steal-scheduled
    recovered run still equals the fault-free run bitwise. ``costs``
    (optional per-task estimates, same indexing as ``tasks``) feeds the
    LPT strategy; each retry round passes the surviving subset through.
    The per-round scheduling stats are folded into ``report.sched``.

    Raises :class:`FaultError` under ``fail_fast`` on the first fault,
    under ``retry`` on exhaustion, and under ``degrade`` when no rank
    survives.
    """
    plan = plan if plan is not None else FaultPlan.none()
    policy = FaultPolicy.parse(policy)
    tracer = getattr(backend, "tracer", None)
    sched_obj = resolve_scheduler(scheduler)
    n = len(tasks)
    results: list = [None] * n
    attempts: list[RankAttempt] = []
    lost: list[int] = []
    pending = list(range(n))
    attempt_no = {r: 0 for r in pending}
    idargs = {"run_id": run_id} if run_id else {}
    round_stats: list = []

    while pending:
        batch = []
        for r in pending:
            fault = plan.fault_for(r, attempt_no[r])
            inject = fault.kind.value if fault is not None else None
            sleep_s = policy.straggler_sleep * max(plan.slowdown(r) - 1.0, 0.0)
            batch.append((worker, copy.deepcopy(tasks[r]), inject, sleep_s))
        round_costs = [costs[r] for r in pending] if costs is not None else None
        outcomes, stats = sched_obj.map(backend, _guarded_call, batch,
                                        costs=round_costs, chunksize=chunksize)
        round_stats.append(stats)

        retry_ranks = []
        for r, out in zip(pending, outcomes):
            k = attempt_no[r]
            status, payload, dt = out
            if (status == "ok" and policy.timeout is not None
                    and dt > policy.timeout):
                status = "fault"
                payload = ("timeout", f"attempt exceeded timeout={policy.timeout}s")
            if status == "ok":
                results[r] = payload
                attempts.append(RankAttempt(r, k, "ok",
                                            backoff=policy.backoff_for(k),
                                            duration=dt))
                continue
            kind, detail = payload
            attempts.append(RankAttempt(r, k, kind, detail,
                                        backoff=policy.backoff_for(k),
                                        duration=dt))
            if tracer:
                tracer.instant("fault", rank=r, kind=kind, attempt=k, **idargs)
            if policy.mode == "fail_fast":
                raise FaultError(
                    f"rank {r} failed ({kind}: {detail}) under fail_fast policy"
                )
            if k >= policy.max_retries:
                if policy.mode == "retry":
                    raise FaultError(
                        f"rank {r} still failing ({kind}) after "
                        f"{k + 1} attempt(s); retry budget exhausted"
                    )
                lost.append(r)  # degrade: drop the rank
                if tracer:
                    tracer.instant("degrade", rank=r, attempts=k + 1, **idargs)
            else:
                attempt_no[r] = k + 1
                retry_ranks.append(r)
                if tracer:
                    tracer.instant("retry", rank=r, attempt=k + 1, **idargs)

        if retry_ranks and policy.backoff_base > 0.0:
            time.sleep(max(policy.backoff_for(attempt_no[r]) for r in retry_ranks))
        pending = retry_ranks

    if len(lost) == n:
        raise FaultError(f"all {n} ranks lost; nothing left to degrade to")
    report = RunReport(
        p=n, mode=policy.mode,
        attempts=tuple(sorted(attempts, key=lambda a: (a.rank, a.attempt))),
        lost_ranks=tuple(sorted(lost)),
        run_id=run_id,
        sched=SchedStats.combine(round_stats),
    )
    return results, report


# ---------------------------------------------------------------------------
# Simulated execution: the same schedule, derived purely from the plan.
# ---------------------------------------------------------------------------


def plan_report(plan: FaultPlan, policy: FaultPolicy, p: int) -> RunReport:
    """The :class:`RunReport` a resilient run of ``p`` ranks will produce
    under ``(plan, policy)`` — computed without executing anything.

    The simulated engines (lattice/PDE/LSM, which run their arithmetic
    inline) use this to account for recovery on the simulated timeline; it
    matches :func:`resilient_map`'s report field-for-field when no
    *unplanned* faults (real exceptions, timeouts) occur.
    """
    check_positive_int("p", p)
    attempts: list[RankAttempt] = []
    lost: list[int] = []
    for r in range(p):
        for k in range(policy.max_retries + 1):
            fault = plan.fault_for(r, k)
            if fault is None:
                attempts.append(RankAttempt(r, k, "ok",
                                            backoff=policy.backoff_for(k)))
                break
            kind = fault.kind.value
            attempts.append(RankAttempt(r, k, kind, _DETAILS[kind],
                                        backoff=policy.backoff_for(k)))
            if policy.mode == "fail_fast":
                raise FaultError(
                    f"rank {r} failed ({kind}) under fail_fast policy"
                )
            if k == policy.max_retries:
                if policy.mode == "retry":
                    raise FaultError(
                        f"rank {r} still failing ({kind}) after "
                        f"{k + 1} attempt(s); retry budget exhausted"
                    )
                lost.append(r)
    if len(lost) == p:
        raise FaultError(f"all {p} ranks lost; nothing left to degrade to")
    return RunReport(p=p, mode=policy.mode, attempts=tuple(attempts),
                     lost_ranks=tuple(lost))


def charge_report(cluster, report: RunReport, base_seconds,
                  policy: FaultPolicy) -> None:
    """Price a report's recovery onto the simulated timeline.

    ``base_seconds[r]`` is the simulated cost of **one attempt** of rank
    r's work, including any straggler stretch. For each failed attempt,
    one full replay is charged as **fault** time — the checkpoint-free
    re-execution model — and each retry's exponential backoff is charged
    as idle wait.

    When the cluster carries a tracer, each retry and failed attempt also
    lands as an instant event on the rank's track at its **simulated**
    time, so chaos timelines show exactly where recovery burned the clock.
    """
    if len(base_seconds) != report.p:
        raise ValidationError(
            f"need base_seconds for all {report.p} ranks, got {len(base_seconds)}"
        )
    tracer = getattr(cluster, "tracer", None)
    for a in report.attempts:
        if a.attempt > 0:
            cluster.delay(a.rank, policy.backoff_for(a.attempt), kind="idle")
            if tracer:
                tracer.instant("retry", rank=a.rank,
                               t=float(cluster.clocks[a.rank]),
                               attempt=a.attempt)
        if a.outcome != "ok":
            cluster.delay(a.rank, float(base_seconds[a.rank]), kind="fault")
            if tracer:
                tracer.instant("fault", rank=a.rank,
                               t=float(cluster.clocks[a.rank]),
                               kind=a.outcome, attempt=a.attempt)


def simulate_recovery(cluster, plan: FaultPlan | None,
                      policy: FaultPolicy, *, engine: str) -> RunReport | None:
    """Fault accounting for engines whose arithmetic runs inline.

    The lattice/PDE/LSM pricers execute the *sequential reference*
    arithmetic themselves (bit-identity is their contract), so faults
    cannot change their values — only their simulated timeline. This
    helper derives the deterministic :func:`plan_report`, charges each
    failed attempt one replay of the rank's accumulated compute (already
    straggler-stretched by the cluster), and refuses ``degrade``-mode rank
    loss: a level-synchronous engine cannot reprice without a rank, so a
    permanently lost rank raises :class:`FaultError` instead of silently
    dropping work. Call it *after* the engine's main compute loop."""
    if plan is None or plan.is_empty:
        return None
    report = plan_report(plan, policy, cluster.p)
    if report.lost_ranks:
        raise FaultError(
            f"{engine} engine computes bit-identical values and cannot "
            f"degrade; ranks {report.lost_ranks} permanently lost"
        )
    base_seconds = [account.compute for account in cluster.accounts]
    charge_report(cluster, report, base_seconds, policy)
    return report

"""Priority lanes, deadlines, and the admission controller.

The gateway's overload contract is *shed, don't collapse*: when offered
load exceeds capacity, excess requests are refused **at the door** (or at
dispatch, if they expired while queued) with an explicit, recorded
reason — queues stay bounded, workers stay busy on requests that can
still meet their deadlines, and goodput holds at capacity instead of
every request timing out together.

Three pieces:

* :data:`LANES` — the priority lanes, drained in order. An arriving
  request waits behind queued work in its own and higher lanes only, so
  an ``interactive`` quote overtakes queued ``bulk`` revaluations.
* :class:`GatewayRequest` — one routed unit: a
  :class:`~repro.serve.batching.PricingRequest` plus its lane and a
  *relative* deadline budget (seconds from arrival).
* :class:`AdmissionController` — the pure decision function. A request
  is shed when its lane queue is full (``queue-full``) or when the
  estimated wait (in-service remainder plus queued work at its priority
  or higher, scaled by the shard's EWMA service-time estimate) says the
  deadline cannot be met (``deadline``). A third reason, ``expired``,
  is recorded by the dispatch loop when a request that *was* feasible at
  admission got pushed past its deadline by later higher-priority
  arrivals.

Every admit/shed/done event becomes a :class:`Decision` in the decision
log — a canonical, digestible stream the ``gateway`` determinism check
replays bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.serve.batching import PricingRequest
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["LANES", "lane_priority", "GatewayRequest", "Decision",
           "decision_digest", "AdmissionController"]

#: Priority lanes in drain order: ``interactive`` quotes preempt queued
#: ``standard`` pricing, which preempts ``bulk`` (risk-run) revaluations.
LANES = ("interactive", "standard", "bulk")

_LANE_RANK = {lane: i for i, lane in enumerate(LANES)}


def lane_priority(lane: str) -> int:
    """Drain rank of ``lane`` (0 = drained first). Raises on unknown lanes."""
    try:
        return _LANE_RANK[lane]
    except KeyError:
        raise ValidationError(
            f"lane must be one of {LANES}, got {lane!r}") from None


@dataclass(frozen=True)
class GatewayRequest:
    """One unit of gateway traffic: a pricing request plus its QoS terms.

    ``deadline_s`` is the *relative* latency budget — the caller's
    patience in seconds from arrival. The gateway stamps the arrival
    time, so the absolute deadline is ``arrival + deadline_s``.
    """

    request: PricingRequest
    lane: str = "standard"
    deadline_s: float = 1.0

    def __post_init__(self) -> None:
        lane_priority(self.lane)
        check_positive("deadline_s", self.deadline_s)


@dataclass(frozen=True, slots=True)
class Decision:
    """One decision-log entry: what happened to request ``seq`` and when.

    ``action`` is ``"admit"``, ``"shed"`` or ``"done"``; ``reason``
    qualifies sheds (``queue-full`` / ``deadline`` / ``expired``) and
    completions: ``late`` past the deadline, ``error`` when pricing
    raised and the caller got the exception (both real-clock mode
    only). Every admitted request ends in exactly one ``done`` or
    ``expired`` entry. All fields are plain primitives so the log
    serializes canonically for the determinism digest. Slotted: two of
    these per quote fill the gateway's bounded decision log, so an entry
    carries no per-instance ``__dict__``.
    """

    seq: int
    t: float
    shard: int
    lane: str
    action: str
    reason: str = ""
    latency_s: float = 0.0

    def canonical(self) -> str:
        """One stable line per decision (the digest input)."""
        return (f"{self.seq}|{self.t!r}|{self.shard}|{self.lane}|"
                f"{self.action}|{self.reason}|{self.latency_s!r}")


def decision_digest(decisions: list[Decision]) -> str:
    """SHA-256 digest of a decision log — two identical runs must match."""
    import hashlib

    joined = "\n".join(d.canonical() for d in decisions)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


@dataclass
class AdmissionController:
    """The admit/shed decision function, parameterized by queue bounds.

    Parameters
    ----------
    max_queue : per-shard, per-lane queue bound. An arrival to a full
        lane is shed immediately — bounded memory per shard by
        construction (``n_lanes * max_queue`` entries at most).
    headroom : multiplier on the estimated wait+service before comparing
        against the deadline (>1 sheds earlier, trading goodput for
        fewer expiries).
    """

    max_queue: int = 64
    headroom: float = 1.0

    def __post_init__(self) -> None:
        check_positive_int("max_queue", self.max_queue)
        check_positive("headroom", self.headroom)

    def decide(self, *, lane_depth: int, work_ahead_s: float,
               service_s: float, now: float, deadline_at: float) -> str:
        """The shed reason for an arrival, or ``""`` to admit.

        ``lane_depth`` is the request's lane queue depth on its shard;
        ``work_ahead_s`` the estimated seconds of work it must wait out
        (in-service remainder + queued work at its priority or higher);
        ``service_s`` the shard's current service-time estimate.
        """
        if lane_depth >= self.max_queue:
            return "queue-full"
        if now + self.headroom * (work_ahead_s + service_s) > deadline_at:
            return "deadline"
        return ""

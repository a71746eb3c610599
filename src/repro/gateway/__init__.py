"""Sharded serving gateway: routing, admission control, load generation.

The serving layer (``repro.serve``) prices one request stream well; this
package scales it out and keeps it honest under overload:

* :mod:`~repro.gateway.router` — canonical-contract-hash sharding, so
  each shard's price cache stays hot and disjoint.
* :mod:`~repro.gateway.admission` — priority lanes, relative deadlines,
  the bounded-queue admission rule and the canonical decision log.
* :mod:`~repro.gateway.core` — the pure (clock-injected) state machine
  both front-ends drive.
* :mod:`~repro.gateway.loadgen` — seeded deterministic open/closed-loop
  traffic plus the virtual cost model and capacity formula.
* :mod:`~repro.gateway.simulate` — the virtual-time executor behind the
  overload acceptance tier, the determinism check and ``bench_f17``.
* :mod:`~repro.gateway.gateway` — the asyncio :class:`ShardedGateway`
  front-end over real :class:`~repro.serve.PricingService` shards.
"""

from repro.gateway.admission import (LANES, AdmissionController, Decision,
                                     GatewayRequest, decision_digest,
                                     lane_priority)
from repro.gateway.core import GatewayCore, Pending
from repro.gateway.gateway import ShardedGateway
from repro.gateway.loadgen import (DEFAULT_LANES, CostModel, LaneMix,
                                   LoadgenConfig, build_book, capacity,
                                   open_loop_schedule, request_stream)
from repro.gateway.router import route, shard_index
from repro.gateway.simulate import (GatewayRunResult, run_closed_loop,
                                    run_schedule)

__all__ = [
    "LANES",
    "AdmissionController",
    "Decision",
    "GatewayRequest",
    "decision_digest",
    "lane_priority",
    "GatewayCore",
    "Pending",
    "ShardedGateway",
    "DEFAULT_LANES",
    "CostModel",
    "LaneMix",
    "LoadgenConfig",
    "build_book",
    "capacity",
    "open_loop_schedule",
    "request_stream",
    "route",
    "shard_index",
    "GatewayRunResult",
    "run_closed_loop",
    "run_schedule",
]

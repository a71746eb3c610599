"""Parallel Monte Carlo pricer: path-wise domain decomposition.

Algorithm (per rank r of P):

1. the path count is block-partitioned: rank r simulates ``n_r`` paths,
   ``|n_r − n/P| ≤ 1``;
2. rank r owns substream r of the master generator (key-split, block-split
   or leapfrog — chosen at construction), so its draws are disjoint from
   every other rank's by construction;
3. rank r accumulates its technique's sufficient statistics — an O(1)
   payload regardless of ``n_r`` (e.g. 24 bytes for plain MC);
4. a binomial-tree reduction combines partials to rank 0 in ⌈log₂ P⌉
   rounds; rank 0 finalizes the estimator.

The *estimate* is a pure function of (master seed, partition scheme, P),
not of which backend executes the ranks or in what order — asserted in the
integration tests by pricing the same job on serial, thread and process
backends. Simulated time charges each rank its per-path work and the
reduction its α–β cost; with O(1) payloads the communication term is
⌈log₂ P⌉(α + 24β), which is why this workload scales almost linearly
(experiments T2/F1/F2).

This class is the configuration + public entry point; the staged
implementation lives in :class:`repro.engine.mc.MCEngine`, driven by the
shared pipeline runner (:mod:`repro.engine.runner`), which applies the
fault, tracing, chunking, timing and metrics middleware once for every
engine family.
"""

from __future__ import annotations

from repro.core.work import WorkModel
from repro.engine.mc import MCEngine
from repro.engine.result import ParallelRunResult
from repro.engine.runner import run_engine
from repro.errors import ValidationError
from repro.market.gbm import MultiAssetGBM
from repro.mc.variance_reduction import PlainMC, Technique
from repro.parallel.backends import ExecutionBackend, SerialBackend
from repro.parallel.faults import FaultPlan, FaultPolicy
from repro.parallel.simcluster import MachineSpec
from repro.payoffs.base import Payoff
from repro.rng.streams import StreamPartition
from repro.utils.validation import check_positive_int

__all__ = ["ParallelMCPricer"]


class ParallelMCPricer:
    """Parallel Monte Carlo over a simulated (and optionally real) machine.

    Parameters
    ----------
    n_paths : total paths across all ranks.
    technique : estimator strategy (default :class:`PlainMC`); QMC is
        supported — ranks then split the *same* Sobol point set by blocks.
    steps : monitoring dates for path-dependent payoffs.
    scheme : RNG substream scheme (default key splitting).
    seed : master seed.
    spec : simulated machine parameters.
    backend : real execution backend (default serial).
    reduce_topology : "tree" (default) or "linear" — ablated in F7.
    work : work-unit model for simulated compute accounting.
    faults : optional :class:`~repro.parallel.faults.FaultPlan`; when given
        (and non-empty), rank tasks run through the resilient map and the
        run report lands in ``result.meta["fault_report"]``. The fault-free
        path is untouched (zero overhead, benchmark F13).
    policy : :class:`~repro.parallel.faults.FaultPolicy` or mode string
        ("fail_fast" | "retry" | "degrade"); default retry. Under retry,
        a recovered run is bitwise equal to the fault-free run (each
        attempt replays a fresh copy of the rank task, so RNG substreams
        are never consumed twice). Under degrade, exhausted ranks are
        dropped and the estimator reprices with the survivors — fewer
        paths, so the reported CI widens honestly.
    tracer : optional :class:`~repro.obs.Tracer` recording the run on the
        **simulated** timeline: per-rank compute/comm/idle/fault spans
        (via the cluster) plus ``mc.paths`` / ``mc.reduce`` phase spans on
        the main track. Real-backend worker spans live on the *backend's*
        tracer instead (wall clock) — keep the two separate.
    metrics : optional :class:`~repro.obs.MetricsRegistry`; each run feeds
        the shared ``engine.runs`` / ``engine.wall_s`` / ``engine.sim_s``
        series, labeled by engine name.
    scheduler : optional :class:`~repro.parallel.sched.Scheduler` or
        strategy name ("static" | "lpt" | "steal") deciding how rank
        tasks meet the backend's workers. Placement only — the estimate
        is scheduler-invariant bitwise (the ``scheduler`` determinism
        check gates this). Default ``None``: the historical static path.
    """

    def __init__(
        self,
        n_paths: int,
        *,
        technique: Technique | None = None,
        steps: int | None = None,
        scheme: StreamPartition | str = StreamPartition.KEYED,
        seed: int = 0,
        spec: MachineSpec | None = None,
        backend: ExecutionBackend | None = None,
        reduce_topology: str = "tree",
        work: WorkModel | None = None,
        record: bool = False,
        faults: FaultPlan | None = None,
        policy: FaultPolicy | str | None = None,
        tracer=None,
        chunksize: int | str | None = None,
        metrics=None,
        scheduler=None,
    ):
        self.n_paths = check_positive_int("n_paths", n_paths)
        self.technique = technique if technique is not None else PlainMC()
        self.steps = None if steps is None else check_positive_int("steps", steps)
        self.scheme = StreamPartition(scheme)
        self.seed = int(seed)
        self.spec = spec if spec is not None else MachineSpec()
        self.backend = backend if backend is not None else SerialBackend()
        if reduce_topology not in ("tree", "linear"):
            raise ValidationError(
                f"reduce_topology must be 'tree' or 'linear', got {reduce_topology!r}"
            )
        self.reduce_topology = reduce_topology
        self.work = work if work is not None else WorkModel()
        #: When set, each run's cluster keeps an event trace and is attached
        #: to the result meta under "cluster" (render with perf.gantt).
        self.record = bool(record)
        self.faults = faults
        self.policy = FaultPolicy.parse(policy)
        self.tracer = tracer
        #: Forwarded to every backend.map: rank tasks per IPC dispatch
        #: (None = one, "auto" = suggest_chunksize). Transport only — the
        #: estimate is chunking-invariant (asserted in the backend tests).
        self.chunksize = chunksize
        self.metrics = metrics
        #: Execute-stage scheduler (None = static). The runner resolves
        #: names via repro.parallel.sched.resolve_scheduler.
        self.scheduler = scheduler

    # ------------------------------------------------------------------

    def price(
        self,
        model: MultiAssetGBM,
        payoff: Payoff,
        expiry: float,
        p: int,
    ) -> ParallelRunResult:
        """Price on ``p`` simulated ranks; returns estimate + T(P) breakdown."""
        return run_engine(MCEngine(self), model, payoff, expiry, p)

    def sweep(self, model, payoff, expiry, p_list) -> list[ParallelRunResult]:
        """Price at each P in ``p_list`` (fresh cluster per point)."""
        return [self.price(model, payoff, expiry, p) for p in p_list]

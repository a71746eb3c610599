"""The unified engine pipeline: registry coverage, determinism, pinned bits.

Every parallel family prices through the shared runner
(:mod:`repro.engine.runner`). These tests gate its contract:

* the registry covers all five parallel families, every hook resolves
  by canonical name only, and every other engine fact (the class flags,
  the oracle adapters, the CLI pricers) is read from its one home;
* pricing is bitwise deterministic per engine (two fresh runs agree on
  every bit of every numeric field);
* a family is one class: the registry's ``pipeline()`` hook returns the
  class its ``serve(request)`` hook instantiates;
* a bad fault policy or scheduler name fails where it is assigned;
* price, stderr and every simulated-cost column of every family replay
  pinned ``float.hex()`` literals.
"""

import numpy as np
import pytest

from repro.engine import (
    PARALLEL_ENGINES,
    REFERENCE_FAMILIES,
    ParallelLatticePricer,
    ParallelLSMPricer,
    ParallelMCGreeks,
    ParallelMCPricer,
    ParallelPDEPricer,
    run_engine,
)
from repro.engine.names import GREEKS, LATTICE, LSM, MC, PDE
from repro.engine.registry import EngineRegistry, EngineSpec, default_registry
from repro.errors import ValidationError
from repro.workloads.suites import scaling_workload

#: Per-family factory: a fresh pricer plus the rank count to run at.
#: Sizes are small — the whole module prices in a few seconds.
CONFIGS = {
    MC: lambda: (ParallelMCPricer(4_000, seed=3), 4),
    LATTICE: lambda: (ParallelLatticePricer(24), 3),
    PDE: lambda: (ParallelPDEPricer(n_space=24, n_time=6), 2),
    LSM: lambda: (ParallelLSMPricer(2_000, 4, seed=5), 3),
    GREEKS: lambda: (ParallelMCGreeks(2_000, seed=7), 2),
}

#: Every ParallelRunResult field except wall_time (backend-dependent) and
#: meta (may carry non-comparable diagnostics like the recorded cluster).
COMPARED_FIELDS = ("price", "stderr", "p", "sim_time", "compute_time",
                   "comm_time", "idle_time", "messages", "bytes_moved",
                   "engine")


def _run_legacy(name):
    cfg, p = CONFIGS[name]()
    w = scaling_workload(name)
    return cfg.price(w.model, w.payoff, w.expiry, p)


class TestRegistryCoverage:
    def test_every_parallel_family_is_registered(self):
        assert default_registry().names(parallel=True) == PARALLEL_ENGINES

    def test_reference_families_match_constant(self):
        from repro.verify.contracts import ENGINE_FAMILIES
        from repro.verify.oracle import ORACLE_ADAPTERS

        assert tuple(ORACLE_ADAPTERS) == REFERENCE_FAMILIES
        assert ENGINE_FAMILIES == REFERENCE_FAMILIES
        registered = default_registry().names()
        assert [n for n in registered if n in REFERENCE_FAMILIES] == list(
            REFERENCE_FAMILIES)

    def test_every_parallel_family_has_a_test_config(self):
        assert set(CONFIGS) == set(PARALLEL_ENGINES)

    @pytest.mark.parametrize("name", PARALLEL_ENGINES)
    def test_pipeline_hook_resolves_matching_engine_class(self, name):
        engine_cls = default_registry().get(name).pipeline()
        assert engine_cls.name == name

    @pytest.mark.parametrize("name", (MC, LATTICE, PDE, LSM))
    def test_pipeline_hook_is_the_class_serve_instantiates(self, name):
        from repro.serve import PricingRequest

        spec = default_registry().get(name)
        request = PricingRequest(scaling_workload(name), engine=name, steps=8)
        assert type(spec.serve(request)) is spec.pipeline()

    def test_servable_families(self):
        assert default_registry().names(servable=True) == (MC, LATTICE, PDE, LSM)

    def test_scalable_and_traceable_families(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (["scaling"], ["trace"], ["obs", "flame"]):
            with pytest.raises(SystemExit):
                parser.parse_args([*argv, "--engine", GREEKS])
            for name in (MC, LATTICE, PDE, LSM):
                assert parser.parse_args([*argv, "--engine", name]).engine \
                    == name

    def test_unknown_engine_raises(self):
        with pytest.raises(ValidationError, match="unknown engine"):
            default_registry().get("fft")

    def test_duplicate_registration_raises(self):
        reg = EngineRegistry()
        reg.register(EngineSpec(name="x", summary="first"))
        with pytest.raises(ValidationError, match="already registered"):
            reg.register(EngineSpec(name="x", summary="second"))

    def test_capability_flags(self):
        """The flags live on the engine classes the runner reads."""
        classes = {n: default_registry().get(n).pipeline()
                   for n in PARALLEL_ENGINES}
        assert {n for n, c in classes.items() if c.batchable} == {MC, LATTICE}
        assert {n for n, c in classes.items() if c.schedulable} == {MC, GREEKS}

    def test_only_mc_uses_a_real_backend_in_the_trace_cli(self, monkeypatch,
                                                          tmp_path, capsys):
        import repro.parallel.backends as backends
        from repro.cli import main

        made = []
        real = backends.make_backend
        monkeypatch.setattr(backends, "make_backend",
                            lambda *a, **kw: made.append(a) or real(*a, **kw))
        for name in (MC, LATTICE, PDE, LSM):
            assert main(["trace", "--engine", name, "--p", "2", "--paths",
                         "500", "--steps", "4", "--grid", "8", "--backend",
                         "thread", "--out", str(tmp_path / name)]) == 0
        assert made == [("thread",)]

    def test_engines_cli_lists_every_family(self, capsys):
        import csv

        from repro.cli import main
        from repro.parallel.sched import SCHEDULER_NAMES

        assert main(["engines", "--csv"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        reg = default_registry()
        assert [r["engine"] for r in rows] == list(reg.names())
        for row in rows:
            hook = reg.get(row["engine"]).pipeline
            cls = hook() if hook is not None else None
            assert row["kind"] == ("pipeline" if cls else "reference")
            assert row["batchable"] == (
                "yes" if cls is not None and cls.batchable else "no")
            assert row["sched"] == (
                ",".join(SCHEDULER_NAMES)
                if cls is not None and cls.schedulable else "static")


class TestPipelineDeterminism:
    @pytest.mark.parametrize("name", PARALLEL_ENGINES)
    def test_two_fresh_runs_are_bitwise_identical(self, name):
        a = _run_legacy(name)
        b = _run_legacy(name)
        for f in COMPARED_FIELDS:
            assert getattr(a, f) == getattr(b, f), f

    def test_greeks_arrays_are_bitwise_deterministic(self):
        w = scaling_workload(GREEKS)
        runs = [ParallelMCGreeks(2_000, seed=7).compute(
            w.model, w.payoff, w.expiry, 2) for _ in range(2)]
        for f in ("delta", "gamma", "vega"):
            assert np.array_equal(getattr(runs[0], f), getattr(runs[1], f)), f


class TestLegacyAdapterRegression:
    @pytest.mark.parametrize("name", PARALLEL_ENGINES)
    def test_result_is_stamped_with_canonical_name(self, name):
        assert _run_legacy(name).engine == name


class TestSettingsAreCheckedWhereStored:
    @pytest.mark.parametrize("mode", ("retry", "degrade"))
    @pytest.mark.parametrize("name", (MC, LATTICE, PDE, LSM))
    def test_policy_is_parsed_at_assignment(self, name, mode):
        from repro.parallel.faults import FaultPlan

        cfg, p = CONFIGS[name]()
        cfg.faults, cfg.policy = FaultPlan.single_crash(1), mode
        assert cfg.policy.mode == mode
        w = scaling_workload(name)
        recovered = cfg.price(w.model, w.payoff, w.expiry, p)
        assert recovered.price == _run_legacy(name).price
        assert recovered.meta["fault_report"].recovered_ranks == (1,)
        with pytest.raises(ValidationError, match="mode must be"):
            cfg.policy = "typo"

    @pytest.mark.parametrize("cls", (ParallelMCPricer, ParallelMCGreeks))
    def test_unknown_scheduler_raises_at_construction(self, cls):
        with pytest.raises(ValidationError, match="unknown scheduler"):
            cls(1_000, scheduler="bogus")
        with pytest.raises(ValidationError, match="as a Scheduler"):
            cls(1_000, scheduler=object())
        # Stored as given: config_digest sees the name, the runner resolves it.
        assert cls(1_000, scheduler="steal").scheduler == "steal"


# ---------------------------------------------------------------------------
# Pinned bits: the simulated-cost columns of every engine family
# ---------------------------------------------------------------------------
#
# The golden corpus pins the *sequential* engines' prices; nothing else
# pins what a parallel run charges the simulated machine. Each case below
# is one ``run_engine`` call whose price, stderr, sim_time, compute_time,
# comm_time, messages and bytes_moved are compared bit for bit
# (``float.hex()``) with literals captured once — a refactor of the engine
# stages or the runner must reproduce all of them.

PINNED_FIELDS = ("price", "stderr", "sim_time", "compute_time", "comm_time",
                 "messages", "bytes_moved")


def _pinned_technique(name, model):
    from repro.analytic import geometric_basket_price
    from repro.mc.qmc import QMCSobol
    from repro.mc.variance_reduction import (Antithetic, ControlVariate,
                                             PlainMC)
    from repro.payoffs.basket import GeometricBasketCall

    if name == "plain":
        return PlainMC()
    if name == "antithetic":
        return Antithetic()
    if name == "qmc":
        return QMCSobol(8, seed=5)
    weights = [0.5, 0.5]
    return ControlVariate(
        GeometricBasketCall(weights, 100.0),
        geometric_basket_price(model, weights, 100.0, 1.0))


def _pinned_mc(technique, topology, p, **kwargs):
    from repro.workloads import basket_workload

    w = basket_workload(2)
    cfg = ParallelMCPricer(4_800, seed=13, reduce_topology=topology,
                           technique=_pinned_technique(technique, w.model),
                           **kwargs)
    return run_engine(cfg, w.model, w.payoff, w.expiry, p)


def _pinned_lattice(american, dim, p):
    from repro.payoffs.basket import BasketPut
    from repro.workloads import basket_workload

    w = basket_workload(dim)
    payoff = BasketPut([1.0 / dim] * dim, 100.0) if american else w.payoff
    cfg = ParallelLatticePricer(10, american=american)
    return run_engine(cfg, w.model, payoff, w.expiry, p)


def _pinned_family(name):
    cfg, p = CONFIGS[name]()
    w = scaling_workload(name)
    return run_engine(cfg, w.model, w.payoff, w.expiry, p)


def _pinned_faulty(policy, permanent):
    from repro.parallel.faults import FaultPlan

    return _pinned_mc("plain", "tree", 4, policy=policy,
                      faults=FaultPlan.single_crash(2, permanent=permanent))


PINNED_RUNS = {
    **{f"mc-{tech}-{topo}-p{p}":
       (lambda tech=tech, topo=topo, p=p: _pinned_mc(tech, topo, p))
       for tech in ("plain", "antithetic", "cv", "qmc")
       for topo in ("tree", "linear") for p in (1, 3, 8)},
    **{f"lattice-{'american' if am else 'european'}-d{d}-p{p}":
       (lambda am=am, d=d, p=p: _pinned_lattice(am, d, p))
       for am in (False, True) for d in (2, 3) for p in (1, 4)},
    **{name: (lambda name=name: _pinned_family(name))
       for name in (PDE, LSM, GREEKS)},
    "mc-retry-recovered": lambda: _pinned_faulty("retry", False),
    "mc-degraded": lambda: _pinned_faulty("degrade", True),
}

#: case id -> float.hex() of each PINNED_FIELDS entry, in order.
PINNED_BITS = {
    "mc-plain-tree-p1": (
        "0x1.51d15b5b318c9p+3", "0x1.b329bfa9e8d72p-3", "0x1.c4fc1df3300dep-10",
        "0x1.c4fc1df3300dep-10", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "mc-plain-tree-p3": (
        "0x1.565504391422dp+3", "0x1.b97ec39137635p-3", "0x1.62ab9bcfa9cbfp-11",
        "0x1.2dfd694ccab3fp-11", "0x1.a5719416f8bffp-14", "0x1.0000000000000p+1",
        "0x1.8000000000000p+5",
    ),
    "mc-plain-tree-p8": (
        "0x1.52ea8e6024b9ap+3", "0x1.b1648ef982fc2p-3", "0x1.8088a682354efp-12",
        "0x1.c4fc1df3300dep-13", "0x1.3c152f113a8ffp-13", "0x1.c000000000000p+2",
        "0x1.5000000000000p+7",
    ),
    "mc-plain-linear-p1": (
        "0x1.51d15b5b318c9p+3", "0x1.b329bfa9e8d72p-3", "0x1.c4fc1df3300dep-10",
        "0x1.c4fc1df3300dep-10", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "mc-plain-linear-p3": (
        "0x1.565504391422dp+3", "0x1.b97ec39137635p-3", "0x1.62ab9bcfa9cbfp-11",
        "0x1.2dfd694ccab3fp-11", "0x1.a5719416f8bffp-14", "0x1.0000000000000p+1",
        "0x1.8000000000000p+5",
    ),
    "mc-plain-linear-p8": (
        "0x1.52ea8e6024b9ap+3", "0x1.b1648ef982fc2p-3", "0x1.29a0b846d8d77p-11",
        "0x1.c4fc1df3300dep-13", "0x1.70c3619419a7fp-12", "0x1.c000000000000p+2",
        "0x1.5000000000000p+7",
    ),
    "mc-antithetic-tree-p1": (
        "0x1.4d7f6811a2943p+3", "0x1.3364b7166fdc6p-3", "0x1.c4fc1df3300dep-10",
        "0x1.c4fc1df3300dep-10", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "mc-antithetic-tree-p3": (
        "0x1.4c58972519d44p+3", "0x1.2efb346027f1ep-3", "0x1.62ab9bcfa9cbfp-11",
        "0x1.2dfd694ccab3fp-11", "0x1.a5719416f8bffp-14", "0x1.0000000000000p+1",
        "0x1.8000000000000p+5",
    ),
    "mc-antithetic-tree-p8": (
        "0x1.4f53cd380c505p+3", "0x1.329f5b937902dp-3", "0x1.8088a682354efp-12",
        "0x1.c4fc1df3300dep-13", "0x1.3c152f113a8ffp-13", "0x1.c000000000000p+2",
        "0x1.5000000000000p+7",
    ),
    "mc-antithetic-linear-p1": (
        "0x1.4d7f6811a2943p+3", "0x1.3364b7166fdc6p-3", "0x1.c4fc1df3300dep-10",
        "0x1.c4fc1df3300dep-10", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "mc-antithetic-linear-p3": (
        "0x1.4c58972519d44p+3", "0x1.2efb346027f1ep-3", "0x1.62ab9bcfa9cbfp-11",
        "0x1.2dfd694ccab3fp-11", "0x1.a5719416f8bffp-14", "0x1.0000000000000p+1",
        "0x1.8000000000000p+5",
    ),
    "mc-antithetic-linear-p8": (
        "0x1.4f53cd380c506p+3", "0x1.329f5b937902cp-3", "0x1.29a0b846d8d77p-11",
        "0x1.c4fc1df3300dep-13", "0x1.70c3619419a7fp-12", "0x1.c000000000000p+2",
        "0x1.5000000000000p+7",
    ),
    "mc-cv-tree-p1": (
        "0x1.518410c75b10ap+3", "0x1.5de67a7989360p-6", "0x1.c4fc1df3300dep-10",
        "0x1.c4fc1df3300dep-10", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "mc-cv-tree-p3": (
        "0x1.51350e0fbe748p+3", "0x1.52cee3494ffe5p-6", "0x1.62ec087c505d9p-11",
        "0x1.2dfd694ccab3fp-11", "0x1.a774f97c2d4d2p-14", "0x1.0000000000000p+1",
        "0x1.8000000000000p+6",
    ),
    "mc-cv-tree-p8": (
        "0x1.4fec352041090p+3", "0x1.46251e4369db3p-6", "0x1.8149ec882903dp-12",
        "0x1.c4fc1df3300dep-13", "0x1.3d97bb1d21f9ep-13", "0x1.c000000000000p+2",
        "0x1.5000000000000p+8",
    ),
    "mc-cv-linear-p1": (
        "0x1.518410c75b10ap+3", "0x1.5de67a7989360p-6", "0x1.c4fc1df3300dep-10",
        "0x1.c4fc1df3300dep-10", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "mc-cv-linear-p3": (
        "0x1.51350e0fbe748p+3", "0x1.52cee3494ffe5p-6", "0x1.62ec087c505d9p-11",
        "0x1.2dfd694ccab3fp-11", "0x1.a774f97c2d4d2p-14", "0x1.0000000000000p+1",
        "0x1.8000000000000p+6",
    ),
    "mc-cv-linear-p8": (
        "0x1.4fec35204108fp+3", "0x1.46251e4369cddp-6", "0x1.2a8234a31fd53p-11",
        "0x1.c4fc1df3300dep-13", "0x1.72865a4ca7a37p-12", "0x1.c000000000000p+2",
        "0x1.5000000000000p+8",
    ),
    "mc-qmc-tree-p1": (
        "0x1.50791827fdfe3p+3", "0x1.e7dcf8c18be80p-6", "0x1.c4fc1df3300dep-10",
        "0x1.c4fc1df3300dep-10", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "mc-qmc-tree-p3": (
        "0x1.50791827fdfe4p+3", "0x1.e7dcf8c18be7ap-6", "0x1.646e948837c77p-11",
        "0x1.2dfd694ccab3fp-11", "0x1.b38959db689c0p-14", "0x1.0000000000000p+1",
        "0x1.8000000000000p+8",
    ),
    "mc-qmc-tree-p8": (
        "0x1.50791827fdfe3p+3", "0x1.e7dcf8c18be96p-6", "0x1.85d190abdf417p-12",
        "0x1.c4fc1df3300dep-13", "0x1.46a703648e750p-13", "0x1.c000000000000p+2",
        "0x1.5000000000000p+10",
    ),
    "mc-qmc-linear-p1": (
        "0x1.50791827fdfe3p+3", "0x1.e7dcf8c18be80p-6", "0x1.c4fc1df3300dep-10",
        "0x1.c4fc1df3300dep-10", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "mc-qmc-linear-p3": (
        "0x1.50791827fdfe4p+3", "0x1.e7dcf8c18be7ap-6", "0x1.646e948837c77p-11",
        "0x1.2dfd694ccab3fp-11", "0x1.b38959db689c0p-14", "0x1.0000000000000p+1",
        "0x1.8000000000000p+8",
    ),
    "mc-qmc-linear-p8": (
        "0x1.50791827fdfe3p+3", "0x1.e7dcf8c18beaap-6", "0x1.2fcb1eccc9c7cp-11",
        "0x1.c4fc1df3300dep-13", "0x1.7d182e9ffb888p-12", "0x1.c000000000000p+2",
        "0x1.5000000000000p+10",
    ),
    "lattice-european-d2-p1": (
        "0x1.50748273fcd35p+3", "0x0.0p+0", "0x1.9429c31cf5af2p-15",
        "0x1.9429c31cf5af2p-15", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "lattice-european-d2-p4": (
        "0x1.50748273fcd35p+3", "0x0.0p+0", "0x1.26f02ed1a4a2ep-10",
        "0x1.e7e1a622bef1dp-17", "0x1.23206b855f251p-10", "0x1.f800000000000p+5",
        "0x1.8900000000000p+11",
    ),
    "lattice-european-d3-p1": (
        "0x1.3abc4cb7d8a84p+3", "0x0.0p+0", "0x1.6a3c5ed5f9465p-11",
        "0x1.6a3c5ed5f9465p-11", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "lattice-european-d3-p4": (
        "0x1.3abc4cb7d8a84p+3", "0x0.0p+0", "0x1.6b81d9338d762p-10",
        "0x1.af67b71e64c50p-13", "0x1.3594e24fc0dd9p-10", "0x1.f800000000000p+5",
        "0x1.7b20000000000p+14",
    ),
    "lattice-american-d2-p1": (
        "0x1.899bfeabe977dp+2", "0x0.0p+0", "0x1.4b44211726e33p-14",
        "0x1.4b44211726e33p-14", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "lattice-american-d2-p4": (
        "0x1.899bfeabe977dp+2", "0x0.0p+0", "0x1.296f0f2c6dc75p-10",
        "0x1.93a8e9c3a88bep-16", "0x1.23206b855f251p-10", "0x1.f800000000000p+5",
        "0x1.8900000000000p+11",
    ),
    "lattice-american-d3-p1": (
        "0x1.5de06479da376p+2", "0x0.0p+0", "0x1.0c58a8e38e854p-10",
        "0x1.0c58a8e38e854p-10", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "lattice-american-d3-p4": (
        "0x1.5de06479da376p+2", "0x0.0p+0", "0x1.8610a5bf97b01p-10",
        "0x1.41ef0dbf5b4a3p-12", "0x1.3594e24fc0dd9p-10", "0x1.f800000000000p+5",
        "0x1.7b20000000000p+14",
    ),
    "pde": (
        "0x1.14536349c7801p+3", "0x0.0p+0", "0x1.7f89a301774e7p-10",
        "0x1.5b9a5a89b951ap-11", "0x1.a378eb79354b3p-11", "0x1.9000000000000p+4",
        "0x1.d4e0000000000p+14",
    ),
    "lsm": (
        "0x1.7fcfecfce5536p+2", "0x1.595cf99b06be5p-3", "0x1.25eb2120b704ep-9",
        "0x1.893344fbdd868p-10", "0x1.84e55788272b5p-11", "0x1.c000000000000p+3",
        "0x1.0500000000000p+12",
    ),
    "mc-greeks": (
        "0x1.30f1704f94ce5p+3", "0x1.2adaca5f86c83p-2", "0x1.87b61753aea8dp-7",
        "0x1.85f06f6944674p-7", "0x1.c5a7ea6a41925p-15", "0x1.0000000000000p+0",
        "0x1.9800000000000p+8",
    ),
    "mc-retry-recovered": (
        "0x1.507d769f17af9p+3", "0x1.b544709cdc945p-3", "0x1.f9aa50760f25ep-11",
        "0x1.c4fc1df3300dep-12", "0x1.a5719416f8bffp-14", "0x1.8000000000000p+1",
        "0x1.2000000000000p+6",
    ),
    "mc-degraded": (
        "0x1.525ef26755293p+3", "0x1.ff8cd493c2b25p-3", "0x1.df5337349f99ep-10",
        "0x1.c4fc1df3300dep-12", "0x1.a5719416f8bffp-14", "0x1.8000000000000p+1",
        "0x1.2000000000000p+6",
    ),
}


class TestPinnedBits:
    def test_every_case_is_pinned(self):
        assert set(PINNED_BITS) == set(PINNED_RUNS)

    @pytest.mark.parametrize("case", sorted(PINNED_RUNS))
    def test_run_engine_reproduces_pinned_bits(self, case):
        result = PINNED_RUNS[case]()
        got = tuple(float(getattr(result, f)).hex() for f in PINNED_FIELDS)
        assert got == PINNED_BITS[case]

"""Pinned: what each engine family's settings look like from outside.

The run ledger fingerprints a pricer with
:func:`repro.obs.ledger.config_digest`, which walks ``vars(pricer)`` and
keeps the primitive / ``None``-valued entries. So the *set of instance
attributes* a constructor stores is part of the ledger contract: add,
drop or rename one and every historical ``config`` column stops matching.
For all five families this file pins

* the sorted primitive / ``None``-valued ``vars()`` keys, as a literal;
* ``config_digest(pricer)``, as a literal, and that the ``config`` field
  of the ledger row a ``price()`` writes equals it;
* that a pickle round-trip preserves the digest and the price bits;
* that the attach-by-assignment idiom — ``pricer.tracer = …``,
  ``.metrics``, ``.ledger``, ``.profiler`` and ``.scheduler = "steal"``
  set *after* construction — is honoured by the next ``price()``.
"""

import pickle
from contextlib import contextmanager

import pytest

from repro.core import (
    ParallelLatticePricer,
    ParallelLSMPricer,
    ParallelMCGreeks,
    ParallelMCPricer,
    ParallelPDEPricer,
)
from repro.engine.names import GREEKS, LATTICE, LSM, MC, PARALLEL_ENGINES, PDE
from repro.obs import MetricsRegistry, RunLedger, Tracer, read_ledger
from repro.obs.ledger import config_digest
from repro.workloads.suites import scaling_workload

#: family -> (fresh pricer, rank count). Small: the module runs in seconds.
FAMILIES = {
    MC: lambda: (ParallelMCPricer(4_800, seed=13), 4),
    LATTICE: lambda: (ParallelLatticePricer(10), 3),
    PDE: lambda: (ParallelPDEPricer(n_space=24, n_time=6), 2),
    LSM: lambda: (ParallelLSMPricer(2_000, 4, seed=5), 3),
    GREEKS: lambda: (ParallelMCGreeks(2_000, seed=7), 2),
}

#: family -> (sorted primitive/None-valued vars() keys, config_digest).
PINNED = {
    MC: (["chunksize", "faults", "metrics", "n_paths", "record",
          "reduce_topology", "scheduler", "seed", "steps", "tracer"],
         "4e647ca66745"),
    LATTICE: (["american", "faults", "metrics", "record", "steps", "tracer"],
              "b774fd5e806d"),
    PDE: (["american", "faults", "metrics", "n_space", "n_time", "record",
           "tracer"],
          "d7d55b211f6b"),
    LSM: (["degree", "faults", "metrics", "min_regression_paths", "n_paths",
           "record", "seed", "steps", "tracer"],
          "1d80e8072a27"),
    GREEKS: (["backend", "chunksize", "metrics", "n_paths", "record",
              "rel_bump", "scheduler", "seed", "tracer", "vol_bump"],
             "94e5efd63342"),
}

_PRIMITIVES = (bool, int, float, str)


def _digested_keys(pricer):
    return sorted(k for k, v in vars(pricer).items()
                  if v is None or isinstance(v, _PRIMITIVES))


def _price(name, pricer, p):
    w = scaling_workload(name)
    return pricer.price(w.model, w.payoff, w.expiry, p)


class _RecordingProfiler:
    """Stands in for ``SamplingProfiler``: records the labels it is asked
    to profile, without a sampling thread."""

    def __init__(self):
        self.labels = []

    @contextmanager
    def profile(self, label):
        self.labels.append(label)
        yield self


def test_every_family_is_pinned():
    assert set(FAMILIES) == set(PINNED) == set(PARALLEL_ENGINES)


@pytest.mark.parametrize("name", PARALLEL_ENGINES)
class TestConfigSurface:
    def test_digested_vars_keys(self, name):
        pricer, _ = FAMILIES[name]()
        assert _digested_keys(pricer) == PINNED[name][0]

    def test_config_digest(self, name):
        pricer, _ = FAMILIES[name]()
        assert config_digest(pricer) == PINNED[name][1]

    def test_ledger_row_carries_the_digest(self, name, tmp_path):
        pricer, p = FAMILIES[name]()
        pricer.ledger = RunLedger(tmp_path / "ledger.jsonl")
        result = _price(name, pricer, p)
        [row] = read_ledger(tmp_path / "ledger.jsonl")
        assert (row.kind, row.engine, row.p) == ("engine", name, p)
        assert row.config == PINNED[name][1]
        assert row.extra["price"] == result.price

    def test_pickle_round_trip(self, name):
        pricer, p = FAMILIES[name]()
        clone = pickle.loads(pickle.dumps(pricer))
        assert _digested_keys(clone) == PINNED[name][0]
        assert config_digest(clone) == PINNED[name][1]
        a, b = _price(name, pricer, p), _price(name, clone, p)
        assert (a.price.hex(), a.stderr.hex(), a.sim_time.hex()) == (
            b.price.hex(), b.stderr.hex(), b.sim_time.hex())

    def test_attachments_assigned_after_construction(self, name, tmp_path):
        pricer, p = FAMILIES[name]()
        pricer.tracer = Tracer()
        pricer.metrics = MetricsRegistry()
        pricer.ledger = RunLedger(tmp_path / "ledger.jsonl")
        pricer.profiler = _RecordingProfiler()
        _price(name, pricer, p)
        assert len(pricer.tracer) > 0
        assert pricer.metrics.counter("engine.runs", engine=name).value == 1
        assert len(list(read_ledger(tmp_path / "ledger.jsonl"))) == 1
        assert pricer.profiler.labels == [f"{name}.execute"]


@pytest.mark.parametrize("name", (MC, GREEKS))
def test_scheduler_assigned_after_construction(name, tmp_path):
    plain, p = FAMILIES[name]()
    pricer, _ = FAMILIES[name]()
    pricer.scheduler = "steal"
    pricer.ledger = RunLedger(tmp_path / "ledger.jsonl")
    stolen, static = _price(name, pricer, p), _price(name, plain, p)
    assert stolen.price.hex() == static.price.hex()
    [row] = read_ledger(tmp_path / "ledger.jsonl")
    assert row.extra["sched"]["strategy"] == "steal"

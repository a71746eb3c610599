"""Pinned bits of the fused strip kernels at ``book_batch``'s shapes.

Each Monte Carlo case is one fused ``run_strip`` over a strike ladder on
one shared two-asset market at p = 2, hashed as one sha256 over every
member's ``price`` and ``stderr`` ``float.hex()`` plus the strip's shared
``sim_time``. The 250-strike PlainMC ladder at 20 000 paths is the
``book_batch`` MC strip; the 64-strike Antithetic, QMCSobol and
path-dependent (arithmetic Asian, 8 dates) strips cover the kernel's
other fused branches. The lattice case is the 128-strike, 64-step
*American* rainbow ladder at p = 2 (all four rainbow payoffs, puts
included so early exercise binds): the sha256 of its prices and every
simulated-clock column, for the engine strip and for
:func:`~repro.batch.kernels.beg_strip_prices`. The literals were recorded
while each rank held every contract's sample vector at once and the
lattice strip was one stacked tensor; how the kernels walk a strip may
move none of them.
"""

import hashlib

import numpy as np
import pytest

from repro.batch.kernels import beg_strip_prices
from repro.engine import ParallelLatticePricer, ParallelMCPricer
from repro.engine.runner import run_strip
from repro.mc.qmc import QMCSobol
from repro.mc.variance_reduction import Antithetic, PlainMC
from repro.payoffs import (AsianArithmeticCall, AsianArithmeticPut, CallOnMax,
                           CallOnMin, PutOnMax, PutOnMin)
from repro.workloads import rainbow_workload, strike_strip

SEED = 17
N_PATHS = 20_000
P = 2


def _asian_ladder(n):
    kinds = (AsianArithmeticCall, AsianArithmeticPut)
    return [kinds[j % 2](float(k), asset=j % 2, dim=2)
            for j, k in enumerate(np.linspace(80.0, 120.0, n))]


def _mc_case(name):
    """``(pricer, model, payoffs, expiry)`` of one pinned MC strip."""
    size, technique, steps = {
        "plain-250": (250, PlainMC(), None),
        "antithetic-64": (64, Antithetic(), None),
        "qmc-64": (64, QMCSobol(), None),
        "asian-64": (64, PlainMC(), 8),
    }[name]
    ladder = strike_strip(size, dim=2)
    payoffs = ([w.payoff for w in ladder] if steps is None
               else _asian_ladder(size))
    pricer = ParallelMCPricer(N_PATHS, technique=technique, steps=steps,
                              seed=SEED)
    return pricer, ladder[0].model, payoffs, ladder[0].expiry


#: name -> sha256 of the members' "price stderr" hex lines and the strip's
#: sim_time hex, newline-joined.
MC_PINNED = {
    "plain-250": (
        "30edfb3a1ede014414a284bf140f69f27b627e922eb97f13c8614124620fcf81"),
    "antithetic-64": (
        "f0d26bf0335a67f2ebc5d9d41b651f55f911861aa63f58aee9d6140261eb37d2"),
    "qmc-64": (
        "f38e66dda1e763f2ff38983a42b87845fa7294a2958e93733207e2de67f3ac30"),
    "asian-64": (
        "4d045a8b784033aa89f32d4ac650fec9b9a30214e61e4e04601d9a49469985a6"),
}


def _mc_digest(results):
    sim_times = {r.sim_time for r in results}
    assert len(sim_times) == 1
    lines = [f"{r.price.hex()} {r.stderr.hex()}" for r in results]
    lines.append(sim_times.pop().hex())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(MC_PINNED))
def test_mc_strip_bits(name):
    pricer, model, payoffs, expiry = _mc_case(name)
    results = run_strip(pricer, model, payoffs, expiry, P)
    assert len(results) == len(payoffs)
    assert _mc_digest(results) == MC_PINNED[name]


LATTICE_STEPS = 64
LATTICE_FIELDS = ("sim_time", "compute_time", "comm_time", "idle_time")

#: sha256 of the 128 American strip prices' float.hex(), newline-joined in
#: strip order, and the fused run's shared simulated columns.
LATTICE_PRICES_SHA256 = (
    "957f8221796130f3ef68858b6610c951f2055209f8cf38e56978d1ee8d478110")
LATTICE_TIMES = ("0x1.1d4e864add48cp+0", "0x1.106984a8f1a63p+0",
                 "0x1.9ca0343d7454ep-5", "0x1.8d73c67646818p-6")


def _rainbow_ladder():
    kinds = (PutOnMin, CallOnMax, PutOnMax, CallOnMin)
    return [kinds[j % 4](float(k), 2)
            for j, k in enumerate(np.linspace(80.0, 120.0, 128))]


def _prices_sha256(prices):
    return hashlib.sha256(
        "\n".join(v.hex() for v in prices).encode()).hexdigest()


def test_american_lattice_strip_bits():
    w = rainbow_workload()
    strip = run_strip(ParallelLatticePricer(LATTICE_STEPS, american=True),
                      w.model, _rainbow_ladder(), w.expiry, P)
    assert _prices_sha256(r.price for r in strip) == LATTICE_PRICES_SHA256
    assert {tuple(getattr(r, f).hex() for f in LATTICE_FIELDS)
            for r in strip} == {LATTICE_TIMES}


def test_american_lattice_kernel_bits():
    w = rainbow_workload()
    prices = beg_strip_prices(w.model, _rainbow_ladder(), w.expiry,
                              LATTICE_STEPS, american=True)
    assert _prices_sha256(prices) == LATTICE_PRICES_SHA256

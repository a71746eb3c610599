"""Pinned bits of a quote-sized lattice and PDE run: price and every
simulated-clock column.

The shapes are the ones a cold gateway quote prices: the two-asset rainbow
max-call on a 64-step BEG lattice and the two-asset spread call on a
32-interval, 16-step ADI grid, at p ∈ {1, 2, 3, 5} (every slab split these
levels and grids see, including uneven ones), European and American, plus
the 128-strike lattice ladder fused into one strip at p = 2. The literals
were recorded while each rank's slab was still computed by its own kernel
call; how the kernels are called may move neither the price nor the
charged ``sim_time`` / ``compute_time`` / ``comm_time`` / ``idle_time``.
"""

import hashlib

import numpy as np
import pytest

from repro.engine import ParallelLatticePricer, ParallelPDEPricer
from repro.engine.runner import run_strip
from repro.payoffs import CallOnMax
from repro.workloads import rainbow_workload, spread_workload

FIELDS = ("price", "sim_time", "compute_time", "comm_time", "idle_time")

# (engine, american, p) -> FIELDS as float.hex()
PINNED = {
    ("lattice", False, 1): (
        "0x1.122be7518159bp+4", "0x1.30270f388227ap-7",
        "0x1.30270f388227ap-7", "0x0.0p+0", "0x0.0p+0"),
    ("lattice", False, 2): (
        "0x1.122be7518159bp+4", "0x1.786fa8597af09p-7",
        "0x1.33adac7615301p-8", "0x1.bd31a43ce0b10p-8",
        "0x1.c34e9ec98433cp-14"),
    ("lattice", False, 3): (
        "0x1.122be7518159bp+4", "0x1.47f993d5347a5p-7",
        "0x1.9ef29eee6d308p-9", "0x1.c079d833325c7p-8",
        "0x1.2dc7b9679542ep-13"),
    ("lattice", False, 5): (
        "0x1.122be7518159bp+4", "0x1.216f915d60027p-7",
        "0x1.fc745a44eff41p-10", "0x1.c3c20c298407ep-8",
        "0x1.d7c67af91a884p-13"),
    ("lattice", True, 1): (
        "0x1.122be7518159bp+4", "0x1.0d4e9d1c05193p-6",
        "0x1.0d4e9d1c05193p-6", "0x0.0p+0", "0x0.0p+0"),
    ("lattice", True, 2): (
        "0x1.122be7518159bp+4", "0x1.ef0256c761fedp-7",
        "0x1.106984a8f1a63p-7", "0x1.bd31a43ce0b10p-8",
        "0x1.8d73c676468ecp-13"),
    ("lattice", True, 3): (
        "0x1.122be7518159bp+4", "0x1.97f72d1d9a6fcp-7",
        "0x1.6f7482080282cp-8", "0x1.c079d833325c7p-8",
        "0x1.0b3d75d747ac4p-12"),
    ("lattice", True, 5): (
        "0x1.122be7518159bp+4", "0x1.528258e040f2bp-7",
        "0x1.c2854b2dfbbbdp-9", "0x1.c3c20c298407ep-8",
        "0x1.5493d60b39ee8p-12"),
    ("pde", False, 1): (
        "0x1.15b57d2e30730p+3", "0x1.843ee974ce339p-8",
        "0x1.843ee974ce339p-8", "0x0.0p+0", "0x0.0p+0"),
    ("pde", False, 2): (
        "0x1.15b57d2e30730p+3", "0x1.61d22d08f7a01p-8",
        "0x1.9002c1fc394c6p-9", "0x1.33a19815b5f4dp-9",
        "0x1.787b10ed631b8p-13"),
    ("pde", False, 3): (
        "0x1.15b57d2e30730p+3", "0x1.824b9f3ac34a9p-8",
        "0x1.02d49ba334221p-9", "0x1.00e151692939ap-8",
        "0x1.a419fb28d5b80p-15"),
    ("pde", False, 5): (
        "0x1.15b57d2e30730p+3", "0x1.0e6ea1ac09495p-7",
        "0x1.496baecfb6b6dp-10", "0x1.ca8257a424e47p-8",
        "0x1.25440740e707ep-12"),
    ("pde", True, 1): (
        "0x1.15b58d46c8f2bp+3", "0x1.8faa2c8ed4444p-8",
        "0x1.8faa2c8ed4444p-8", "0x0.0p+0", "0x0.0p+0"),
    ("pde", True, 2): (
        "0x1.15b58d46c8f2bp+3", "0x1.67b4194cad2c6p-8",
        "0x1.9bc69a83a4655p-9", "0x1.33a19815b5f4dp-9",
        "0x1.838dbe9a0421ep-13"),
    ("pde", True, 3): (
        "0x1.15b58d46c8f2bp+3", "0x1.861a0aee1aa58p-8",
        "0x1.0a717309e2d7cp-9", "0x1.00e151692939ap-8",
        "0x1.a419fb28d5b80p-15"),
    ("pde", True, 5): (
        "0x1.15b58d46c8f2bp+3", "0x1.0fa4acaaeae64p-7",
        "0x1.531c06c6c39e1p-10", "0x1.ca8257a424e47p-8",
        "0x1.2acd5e17378acp-12"),
}

#: sha256 of the 128 strip prices' float.hex(), newline-joined in strip
#: order, and the (shared) simulated columns of the fused run.
STRIP_PRICES_SHA256 = (
    "809ae58ec05d2cd6f92412f7e900ea9659f372af8732967aa216adc332cbc59a")
STRIP_TIMES = ("0x1.4d77afb9ec756p-1", "0x1.33adac7615301p-1",
               "0x1.9ca0343d7454ep-5", "0x1.c34e9ec98445cp-7")


def _quote(engine, american, p):
    if engine == "lattice":
        w = rainbow_workload()
        pricer = ParallelLatticePricer(64, american=american)
    else:
        w = spread_workload()
        pricer = ParallelPDEPricer(n_space=32, n_time=16, american=american)
    return pricer.price(w.model, w.payoff, w.expiry, p)


@pytest.mark.parametrize("engine, american, p", sorted(PINNED))
def test_quote_bits(engine, american, p):
    result = _quote(engine, american, p)
    assert tuple(getattr(result, f).hex() for f in FIELDS) \
        == PINNED[engine, american, p]


def test_ladder_strip_bits():
    w = rainbow_workload()
    payoffs = [CallOnMax(float(k)) for k in np.linspace(80.0, 120.0, 128)]
    strip = run_strip(ParallelLatticePricer(64), w.model, payoffs, w.expiry, 2)
    prices = "\n".join(r.price.hex() for r in strip)
    assert hashlib.sha256(prices.encode()).hexdigest() == STRIP_PRICES_SHA256
    assert {tuple(getattr(r, f).hex() for f in FIELDS[1:])
            for r in strip} == {STRIP_TIMES}

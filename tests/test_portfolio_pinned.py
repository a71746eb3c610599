"""Pinned bits of the portfolio task farm: every schedule's placement and
simulated clock.

Two books — benchmark F10's heterogeneous basket book and
``random_portfolio(16, dim=4, seed=2)`` — priced at 20 000 paths, seed 1,
under each of ``block`` / ``cyclic`` / ``lpt`` / ``dynamic`` at
p ∈ {1, 2, 3, 4, 8}. Each cell pins ``float.hex`` of ``sim_time``,
``imbalance`` and every ``per_rank_times`` entry, the contract → rank
``assignment``, and a sha256 over the ``(price, stderr)`` hexes (one per
book: schedules and P never move a price). Where the placement is computed
may change; none of these bits may.

Also pinned: the virtual-time digests of ``simulate_schedule`` under
``static``, ``lpt`` and ``steal`` on one fixed cost vector, the placement
home the portfolio schedules draw on.
"""

import hashlib
import importlib

import pytest

from repro.parallel.sched import simulate_schedule
from repro.workloads import basket_workload, random_portfolio


def _portfolio_pricer():
    # The class has lived in two packages; the same pins gate either home.
    for home in ("repro.engine", "repro.core"):
        cls = getattr(importlib.import_module(home), "PortfolioPricer", None)
        if cls is not None:
            return cls
    raise ImportError("PortfolioPricer")


PortfolioPricer = _portfolio_pricer()

#: Benchmark F10's book: dimensions drawn so contract costs span ~8×.
F10_DIMS = (1, 1, 8, 2, 8, 1, 4, 2, 8, 4, 1, 2, 4, 8, 1, 1)

BOOKS = {
    "f10": lambda: [basket_workload(d) for d in F10_DIMS],
    "random16": lambda: random_portfolio(16, dim=4, seed=2),
}

SCHEDULES = ("block", "cyclic", "lpt", "dynamic")
PS = (1, 2, 3, 4, 8)

# (book, schedule, p) -> (sim_time, imbalance, per_rank_times, assignment)
CELLS = {
    ("f10", "block", 1): (
        "0x1.930be0ded288ep-3", "0x0.0p+0",
        ("0x1.930be0ded288ep-3",),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ("f10", "block", 2): (
        "0x1.a12da224ad895p-4", "0x1.1f3b9ae97c3e0p-5",
        ("0x1.851eb851eb852p-4", "0x1.a0f9096bb98c7p-4"),
        (0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1)),
    ("f10", "block", 3): (
        "0x1.2eb21a1905e06p-4", "0x1.0321c6ea6e5a0p-3",
        ("0x1.2e48e8a71de6ap-4", "0x1.10cb295e9e1b0p-4",
         "0x1.ce075f6fd21fep-5"),
        (0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2)),
    ("f10", "block", 4): (
        "0x1.afb894dc7083cp-5", "0x1.2368a4220f600p-4",
        ("0x1.5b573eab367a1p-5", "0x1.aee631f8a0902p-5",
         "0x1.aee631f8a0902p-5", "0x1.930be0ded288cp-5"),
        (0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3)),
    ("f10", "block", 8): (
        "0x1.56051a462756bp-5", "0x1.64f3fd0791bc0p-1",
        ("0x1.f212d77318fc5p-8", "0x1.1d14e3bcd35a8p-5",
         "0x1.013a92a305532p-5", "0x1.5b573eab367a1p-6",
         "0x1.54c985f06f694p-5", "0x1.6872b020c49bap-7",
         "0x1.54c985f06f694p-5", "0x1.f212d77318fc5p-8"),
        (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7)),
    ("f10", "cyclic", 1): (
        "0x1.930be0ded288ep-3", "0x0.0p+0",
        ("0x1.930be0ded288ep-3",),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ("f10", "cyclic", 2): (
        "0x1.f4bc9572179f7p-4", "0x1.f064c143bcb80p-3",
        ("0x1.f487fcb923a29p-4", "0x1.318fc504816f0p-4"),
        (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)),
    ("f10", "cyclic", 3): (
        "0x1.1f21835d6d187p-4", "0x1.18fedf0091c60p-4",
        ("0x1.d14e3bcd35a85p-5", "0x1.1eb851eb851ebp-4",
         "0x1.1eb851eb851ebp-4"),
        (0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0)),
    ("f10", "cyclic", 4): (
        "0x1.2b6b3dbba257fp-4", "0x1.f1700391e1804p-2",
        ("0x1.2b020c49ba5e3p-4", "0x1.930be0ded288dp-5",
         "0x1.930be0ded288cp-5", "0x1.a027525460aa7p-6"),
        (0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3)),
    ("f10", "cyclic", 8): (
        "0x1.56051a462756bp-5", "0x1.64f3fd0791bc2p-1",
        ("0x1.013a92a305532p-5", "0x1.23a29c779a6b5p-6",
         "0x1.013a92a305532p-5", "0x1.d7dbf487fcb92p-7",
         "0x1.54c985f06f694p-5", "0x1.013a92a305532p-5",
         "0x1.23a29c779a6b5p-6", "0x1.6872b020c49bap-7"),
        (0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7)),
    ("f10", "lpt", 1): (
        "0x1.930be0ded288ep-3", "0x0.0p+0",
        ("0x1.930be0ded288ep-3",),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ("f10", "lpt", 2): (
        "0x1.94e3e7c67849ep-4", "0x1.2bd05a6b1a200p-8",
        ("0x1.916872b020c49p-4", "0x1.94af4f0d844d0p-4"),
        (1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1)),
    ("f10", "lpt", 3): (
        "0x1.12d7c8ff37d8fp-4", "0x1.76b6cd2dfc2c0p-6",
        ("0x1.0f27bb2fec56dp-4", "0x1.126e978d4fdf3p-4",
         "0x1.04816f0068db9p-4"),
        (1, 2, 0, 2, 1, 1, 1, 2, 2, 2, 2, 0, 1, 0, 0, 1)),
    ("f10", "lpt", 4): (
        "0x1.972520200604dp-5", "0x1.4d38a42fb3380p-7",
        ("0x1.8fc504816f006p-5", "0x1.930be0ded288cp-5",
         "0x1.930be0ded288cp-5", "0x1.9652bd3c36113p-5"),
        (1, 2, 0, 3, 1, 3, 0, 3, 2, 1, 1, 0, 2, 3, 2, 3)),
    ("f10", "lpt", 8): (
        "0x1.c6a9f3031761ap-6", "0x1.0648ab45d2628p-3",
        ("0x1.c432ca57a786cp-6", "0x1.c432ca57a786cp-6",
         "0x1.c432ca57a786cp-6", "0x1.c432ca57a786cp-6",
         "0x1.5b573eab367a1p-6", "0x1.61e4f765fd8aep-6",
         "0x1.61e4f765fd8aep-6", "0x1.6872b020c49bbp-6"),
        (5, 6, 0, 7, 1, 7, 4, 7, 2, 5, 5, 4, 6, 3, 6, 7)),
    ("f10", "dynamic", 1): (
        "0x1.94af4f0d844cep-3", "0x1.0a6810a680f00p-8",
        ("0x1.930be0ded288ep-3",),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ("f10", "dynamic", 2): (
        "0x1.a2d110535f4d8p-4", "0x1.40889cfe4c5e0p-5",
        ("0x1.a0f9096bb98c7p-4", "0x1.851eb851eb851p-4"),
        (0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1)),
    ("f10", "dynamic", 3): (
        "0x1.2de0380e8f39ep-4", "0x1.f9c41e5493d10p-4",
        ("0x1.ed288ce703afbp-5", "0x1.02de00d1b7175p-4",
         "0x1.2ca57a786c226p-4"),
        (0, 1, 2, 0, 1, 0, 0, 2, 0, 1, 2, 2, 1, 2, 0, 1)),
    ("f10", "dynamic", 4): (
        "0x1.02757b2c462f0p-4", "0x1.214eb68fccb08p-2",
        ("0x1.7a786c226809cp-5", "0x1.5b573eab367a1p-5",
         "0x1.73eab367a0f90p-5", "0x1.013a92a305532p-4"),
        (0, 1, 2, 3, 0, 1, 3, 1, 1, 3, 2, 0, 2, 3, 0, 0)),
    ("f10", "dynamic", 8): (
        "0x1.22d1e712f4238p-5", "0x1.c5be59cc8973cp-2",
        ("0x1.013a92a305532p-5", "0x1.23a29c779a6b5p-6",
         "0x1.c432ca57a786cp-6", "0x1.2a305532617c2p-6",
         "0x1.c432ca57a786cp-6", "0x1.205bc01a36e2fp-5",
         "0x1.23a29c779a6b5p-6", "0x1.5b573eab367a1p-6"),
        (0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 5, 3, 7, 5, 6, 3)),
    ("random16", "block", 1): (
        "0x1.cac083126e97cp-3", "0x0.0p+0",
        ("0x1.cac083126e97cp-3",),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ("random16", "block", 2): (
        "0x1.caf51bcb62947p-4", "0x1.d59cbc8276000p-12",
        ("0x1.cac083126e979p-4", "0x1.cac083126e979p-4"),
        (0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1)),
    ("random16", "block", 3): (
        "0x1.587993bfbaeb7p-4", "0x1.02c06b1ac3b18p-3",
        ("0x1.5810624dd2f1bp-4", "0x1.1eb851eb851ecp-4",
         "0x1.1eb851eb851ecp-4"),
        (0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2)),
    ("random16", "block", 4): (
        "0x1.cb92e5f63e8b3p-5", "0x1.d59cbc8276c00p-10",
        ("0x1.cac083126e979p-5", "0x1.cac083126e979p-5",
         "0x1.cac083126e979p-5", "0x1.cac083126e979p-5"),
        (0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3)),
    ("random16", "block", 8): (
        "0x1.cd37abbdde727p-6", "0x1.60358d61d9000p-8",
        ("0x1.cac083126e979p-6", "0x1.cac083126e979p-6",
         "0x1.cac083126e979p-6", "0x1.cac083126e979p-6",
         "0x1.cac083126e979p-6", "0x1.cac083126e979p-6",
         "0x1.cac083126e979p-6", "0x1.cac083126e979p-6"),
        (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7)),
    ("random16", "cyclic", 1): (
        "0x1.cac083126e97cp-3", "0x0.0p+0",
        ("0x1.cac083126e97cp-3",),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ("random16", "cyclic", 2): (
        "0x1.caf51bcb62947p-4", "0x1.d59cbc8276000p-12",
        ("0x1.cac083126e979p-4", "0x1.cac083126e979p-4"),
        (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)),
    ("random16", "cyclic", 3): (
        "0x1.587993bfbaeb7p-4", "0x1.02c06b1ac3b18p-3",
        ("0x1.5810624dd2f1bp-4", "0x1.1eb851eb851ecp-4",
         "0x1.1eb851eb851ecp-4"),
        (0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0)),
    ("random16", "cyclic", 4): (
        "0x1.cb92e5f63e8b3p-5", "0x1.d59cbc8276c00p-10",
        ("0x1.cac083126e979p-5", "0x1.cac083126e979p-5",
         "0x1.cac083126e979p-5", "0x1.cac083126e979p-5"),
        (0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3)),
    ("random16", "cyclic", 8): (
        "0x1.cd37abbdde727p-6", "0x1.60358d61d9000p-8",
        ("0x1.cac083126e979p-6", "0x1.cac083126e979p-6",
         "0x1.cac083126e979p-6", "0x1.cac083126e979p-6",
         "0x1.cac083126e979p-6", "0x1.cac083126e979p-6",
         "0x1.cac083126e979p-6", "0x1.cac083126e979p-6"),
        (0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7)),
    ("random16", "lpt", 1): (
        "0x1.cac083126e97cp-3", "0x0.0p+0",
        ("0x1.cac083126e97cp-3",),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ("random16", "lpt", 2): (
        "0x1.caf51bcb62947p-4", "0x1.d59cbc8276000p-12",
        ("0x1.cac083126e979p-4", "0x1.cac083126e979p-4"),
        (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)),
    ("random16", "lpt", 3): (
        "0x1.587993bfbaeb7p-4", "0x1.02c06b1ac3b18p-3",
        ("0x1.5810624dd2f1bp-4", "0x1.1eb851eb851ecp-4",
         "0x1.1eb851eb851ecp-4"),
        (0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0)),
    ("random16", "lpt", 4): (
        "0x1.cb92e5f63e8b3p-5", "0x1.d59cbc8276c00p-10",
        ("0x1.cac083126e979p-5", "0x1.cac083126e979p-5",
         "0x1.cac083126e979p-5", "0x1.cac083126e979p-5"),
        (0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3)),
    ("random16", "lpt", 8): (
        "0x1.cd37abbdde727p-6", "0x1.60358d61d9000p-8",
        ("0x1.cac083126e979p-6", "0x1.cac083126e979p-6",
         "0x1.cac083126e979p-6", "0x1.cac083126e979p-6",
         "0x1.cac083126e979p-6", "0x1.cac083126e979p-6",
         "0x1.cac083126e979p-6", "0x1.cac083126e979p-6"),
        (0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7)),
    ("random16", "dynamic", 1): (
        "0x1.cc63f141205bdp-3", "0x1.d41d41d41d200p-9",
        ("0x1.cac083126e97cp-3",),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ("random16", "dynamic", 2): (
        "0x1.cc9889fa14589p-4", "0x1.07686cb236000p-8",
        ("0x1.cac083126e979p-4", "0x1.cac083126e979p-4"),
        (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)),
    ("random16", "dynamic", 3): (
        "0x1.59b42662c03e9p-4", "0x1.0afaeec2fe350p-3",
        ("0x1.5810624dd2f1bp-4", "0x1.1eb851eb851ecp-4",
         "0x1.1eb851eb851ecp-4"),
        (0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0)),
    ("random16", "dynamic", 4): (
        "0x1.cd365424f04f6p-5", "0x1.5f75d00aac500p-8",
        ("0x1.cac083126e979p-5", "0x1.cac083126e979p-5",
         "0x1.cac083126e979p-5", "0x1.cac083126e979p-5"),
        (0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3)),
    ("random16", "dynamic", 8): (
        "0x1.cedb19ec9036ap-6", "0x1.25221725f3d00p-7",
        ("0x1.cac083126e979p-6", "0x1.cac083126e979p-6",
         "0x1.cac083126e979p-6", "0x1.cac083126e979p-6",
         "0x1.cac083126e979p-6", "0x1.cac083126e979p-6",
         "0x1.cac083126e979p-6", "0x1.cac083126e979p-6"),
        (0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7)),
}

PRICES_SHA256 = {
    "f10": "c3cfc8dfa6d592b7d76bc1eed9d1cb74f1f3b448ca00e75cb9a0f0bbef83921d",
    "random16": "c0733c225ac5b0860ff495eae639e662137a6f1edc0ac789b1d144c95d0a2e79",
}

SCHEDULE_DIGESTS = {
    "static": "3edba40a0a7d8702",
    "lpt": "aafa7be5946a06e6",
    "steal": "c8af1121578a9719",
}


def _prices_sha256(run) -> str:
    return hashlib.sha256("|".join(
        f"{r.price.hex()},{r.stderr.hex()}" for r in run.results
    ).encode()).hexdigest()


@pytest.fixture(scope="module")
def runs():
    out = {}
    for name, make in BOOKS.items():
        book = make()
        for sched in SCHEDULES:
            for p in PS:
                out[name, sched, p] = PortfolioPricer(
                    20_000, schedule=sched, seed=1).run(book, p)
    return out


def test_every_cell_is_pinned():
    assert set(CELLS) == {(b, s, p) for b in BOOKS for s in SCHEDULES
                          for p in PS}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_clock_and_placement(runs, cell):
    run = runs[cell]
    sim_time, imbalance, per_rank, assignment = CELLS[cell]
    assert run.sim_time.hex() == sim_time
    assert run.imbalance.hex() == imbalance
    assert tuple(t.hex() for t in run.per_rank_times) == per_rank
    assert run.assignment == assignment


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_prices(runs, cell):
    assert _prices_sha256(runs[cell]) == PRICES_SHA256[cell[0]]


@pytest.mark.parametrize("strategy", sorted(SCHEDULE_DIGESTS))
def test_simulate_schedule_digest(strategy):
    costs = [float((5 * i) % 13 + 1) for i in range(20)]
    got = simulate_schedule(costs, 3, strategy=strategy, seed=7).digest()
    assert got == SCHEDULE_DIGESTS[strategy]

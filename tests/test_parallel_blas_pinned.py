"""Pins that hold the price bits still while the BLAS thread count moves.

The rank kernel's correlate step (``z @ chol.T`` on an ``(n, d)`` block)
is a BLAS gemm, and OpenBLAS splits a gemm across threads once it is big
enough. These pins were captured with NumPy's default BLAS thread count
(one per vCPU on a 2-vCPU host); a pool that changes that count must
replay them byte for byte.

Two tiers:

* ``float.hex`` of price and stderr for a 1 M-path, 8-rank basket solve
  (the ``scaling_mc`` shape) on the serial, thread and process backends;
* sha256 of ``MultiAssetGBM.terminal_from_normals`` on 125 000-row Philox
  blocks — the block one rank of that solve transforms — for d = 2, 4, 7.
"""

import hashlib

import pytest

from repro.engine import ParallelMCPricer
from repro.parallel import ProcessBackend, SerialBackend, ThreadBackend
from repro.rng import Philox4x32
from repro.workloads import basket_workload

_SEED = 2002
_ROWS = 125_000

_PINNED_SOLVE = ("0x1.2e0bc9c20d93ap+3", "0x1.a230aef7521cep-7")

_PINNED_TERMINAL = {
    2: "98c736d4bed2b19ab4e5d84acc389994b260b34121568dc8a57ba6cda129fd8c",
    4: "cc8ba73a60fbc10d08805c59b92a767b9b33554a379886592782e5b551903d84",
    7: "c08b6a0ac2ebc91ef51bc64d56cb12f18a19b1859c9a82553844adefed2259da",
}

_BACKENDS = {
    "serial": SerialBackend,
    "thread": lambda: ThreadBackend(2),
    "process": lambda: ProcessBackend(2),
}


@pytest.mark.parametrize("name", list(_BACKENDS))
def test_scaling_solve_bits_pinned(name):
    w = basket_workload(4)
    with _BACKENDS[name]() as backend:
        pricer = ParallelMCPricer(1_000_000, seed=_SEED, backend=backend)
        r = pricer.price(w.model, w.payoff, w.expiry, 8)
    assert (r.price.hex(), r.stderr.hex()) == _PINNED_SOLVE


@pytest.mark.parametrize("d", sorted(_PINNED_TERMINAL))
def test_terminal_from_normals_digest_pinned(d):
    model = basket_workload(d).model
    z = Philox4x32(_SEED).normals(_ROWS * d).reshape(_ROWS, d)
    terminal = model.terminal_from_normals(z, 1.0)
    assert terminal.shape == (_ROWS, d)
    assert hashlib.sha256(terminal.tobytes()).hexdigest() == _PINNED_TERMINAL[d]

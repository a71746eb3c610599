"""One BLAS thread per process while a worker pool is open.

The BLAS count is process-global, so every check against the real
library runs in a fresh ``python -c`` interpreter and cannot depend on
test order. Each probe reads the count through the same symbol lookup
the backends use to set it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.parallel import backends as B

_PROBE = """
import json, os, sys, threading
import multiprocessing as mp
from repro.parallel import backends as B

kind = sys.argv[1]
get = B._openblas("get_num_threads")
before = get()
# Two parties: each of the two pool workers must take one task.
barrier = {"process": mp.get_context("fork").Barrier(2),
           "thread": threading.Barrier(2)}.get(kind)

def probe(_):
    if barrier is not None:
        barrier.wait(timeout=30)
    return os.getpid(), threading.get_ident(), get()

backend = {"serial": B.SerialBackend, "thread": lambda: B.ThreadBackend(2),
           "process": lambda: B.ProcessBackend(2)}[kind]()
with backend:
    workers = backend.map(probe, range(2))
    parent = get()
print(json.dumps({"before": before, "parent": parent, "workers": workers,
                  "after": get()}))
"""

needs_blas = pytest.mark.skipif(
    B._openblas("get_num_threads") is None,
    reason="this BLAS exports no known openblas_get_num_threads symbol")


def _probe(kind: str) -> dict:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _PROBE, kind], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


@needs_blas
@pytest.mark.parametrize("kind", ["process", "thread"])
def test_pool_leaves_parent_and_workers_on_one_blas_thread(kind):
    seen = _probe(kind)
    assert seen["parent"] == 1, seen
    assert len({(pid, ident) for pid, ident, _ in seen["workers"]}) == 2, seen
    assert [count for _, _, count in seen["workers"]] == [1, 1], seen
    assert seen["after"] == seen["before"], seen


@needs_blas
def test_serial_backend_leaves_blas_threads_alone():
    seen = _probe("serial")
    assert seen["parent"] == seen["after"] == seen["before"], seen
    assert [count for _, _, count in seen["workers"]] == [seen["before"]] * 2


class _FakeBlas:
    """Stands in for ``_openblas``: a thread count and its two calls."""

    def __init__(self, count: int):
        self.count = count

    def __call__(self, fn: str):
        if fn == "get_num_threads":
            return lambda: self.count
        return lambda n: setattr(self, "count", n)


def test_last_pool_to_close_restores_the_count(monkeypatch):
    blas = _FakeBlas(4)
    monkeypatch.setattr(B, "_openblas", blas)
    cap = B._BlasCap()
    cap.acquire()
    cap.acquire()
    assert blas.count == 1
    cap.release()
    assert blas.count == 1
    cap.release()
    assert blas.count == 4
    blas.count = 3  # raised while no pool was open: the next open re-caps
    cap.acquire()
    assert blas.count == 1
    cap.release()
    assert blas.count == 3


def test_cap_is_quiet_without_a_known_symbol(monkeypatch):
    monkeypatch.setattr(B, "_openblas", lambda fn: None)
    cap = B._BlasCap()
    assert cap.acquire() is None
    assert cap.release() is None


def test_lookup_returns_none_when_no_name_resolves(monkeypatch):
    monkeypatch.setattr(B, "_OPENBLAS_NAMES", ("no_such_blas_{}_symbol",))
    assert B._openblas("set_num_threads") is None

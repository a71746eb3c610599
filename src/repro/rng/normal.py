"""Gaussian sampling transforms on top of a :class:`BitGenerator`.

Three classical transforms are provided:

* :func:`normals_inverse` — inverse-CDF. Consumes exactly one uniform per
  normal, preserving the low-discrepancy structure of QMC points and the
  alignment of leapfrogged substreams. This is the default everywhere.
* :func:`normals_boxmuller` — exact Box–Muller pairs (two uniforms → two
  normals).
* :func:`normals_polar` — Marsaglia's polar (rejection) method; consumes a
  *random* number of uniforms, so it must not be used with stream-splitting
  schemes that rely on fixed consumption — the engines only use it when
  explicitly requested.

**Draw scopes.** A Philox4x32 inverse-CDF block is a pure function of
``(key, index, n)``. While a :class:`DrawScope` is active in a thread (one
backend ``map``, see :mod:`repro.parallel.backends`, or one risk sweep,
see :mod:`repro.risk.var`), :func:`normals_inverse` draws each such block
once and hands every later request for it the same read-only array,
advancing the generator by ``n`` as a draw would. No consumer writes into
its normals, so every price keeps its bits. Outside a scope, and for
other generators, each call draws a fresh writable array.
:func:`task_scope` is the one place a scope is opened.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager

import numpy as np

from repro.errors import ValidationError
from repro.rng.base import _TILE
from repro.rng.philox import Philox4x32
from repro.utils.lru import BoundedLRU
from repro.utils.numerics import norm_ppf

__all__ = ["normals_inverse", "normals_boxmuller", "normals_polar",
           "DrawScope", "draw_scope", "current_scope", "task_scope"]

#: Most bytes of normals a scope keeps (LRU), so what sharing may add to a
#: process's resident set: six 40 000-normal blocks (a 10 000-path, 4-asset
#: rank). A bigger block (a ``scaling_mc`` rank is 3.9 MiB) is never kept.
SCOPE_CAP_BYTES = 2 << 20


class DrawScope(BoundedLRU):
    """Philox normal blocks drawn once and shared read-only: a
    :class:`~repro.utils.lru.BoundedLRU` weighing a block by its bytes, so
    at most :data:`SCOPE_CAP_BYTES` per scope (a pool worker also keeps
    its newest map's between maps). Only a kept block is made read-only.
    ``token`` names the map or sweep served. Threads share a scope under
    its lock; draws run outside it, so a race may draw a block twice,
    never return other bits.
    """

    def __init__(self, token: int):
        super().__init__(SCOPE_CAP_BYTES)
        self.token = token

    def weigh(self, block: np.ndarray) -> int:
        return block.nbytes

    @property
    def nbytes(self) -> int:
        return self.weight

    def put(self, key, block: np.ndarray) -> int:
        if block.nbytes <= self.cap:
            block.flags.writeable = False
        return super().put(key, block)


_active = threading.local()
#: Names each scope; a pool worker is sent only the number.
_SCOPE_TOKENS = itertools.count()


def current_scope() -> DrawScope | None:
    """The scope active in this thread, if any."""
    return getattr(_active, "scope", None)


def task_scope(n_tasks: int) -> DrawScope | None:
    """The scope ``n_tasks`` tasks drawing on shared seeds run in: the
    active one, joined; else a new one if two or more tasks may share a
    block; else ``None`` (a lone task draws fresh)."""
    scope = current_scope()
    if scope is None and n_tasks > 1:
        scope = DrawScope(next(_SCOPE_TOKENS))
    return scope


@contextmanager
def draw_scope(scope: DrawScope):
    """Make ``scope`` this thread's active scope for the ``with`` body."""
    prev = current_scope()
    _active.scope = scope
    try:
        yield scope
    finally:
        _active.scope = prev


def normals_inverse(gen, n: int) -> np.ndarray:
    """``n`` standard normals via Φ⁻¹ of open-interval uniforms.

    The request is drawn and transformed ``_TILE`` uniforms at a time, so the
    uniform and Φ⁻¹ passes run over cache-resident data and the only
    full-length array is the result. That is byte-identical to one
    ``uniforms_open(n)`` for any generator whose stream is contiguous across
    calls (``raw(a) ‖ raw(b) == raw(a + b)``), since Φ⁻¹ is elementwise.
    In a draw scope a Philox4x32 block is drawn once (module docstring).
    """
    if n < 0:
        raise ValidationError(f"n must be non-negative, got {n}")
    scope = current_scope()
    if scope is None or type(gen) is not Philox4x32:
        return _inverse_block(gen, n)
    key = (int(gen._key0), int(gen._key1), gen.position, n)
    block = scope.get(key)
    if block is None:
        block = _inverse_block(gen, n)
        scope.put(key, block)
    else:
        gen.jump(n)
    return block


def _inverse_block(gen, n: int) -> np.ndarray:
    out = np.empty(n, dtype=float)
    for start in range(0, n, _TILE):
        stop = min(start + _TILE, n)
        out[start:stop] = norm_ppf(gen.uniforms_open(stop - start))
    return out


def normals_boxmuller(gen, n: int) -> np.ndarray:
    """``n`` standard normals via Box–Muller (pairs; one extra draw if odd)."""
    if n < 0:
        raise ValidationError(f"n must be non-negative, got {n}")
    m = (n + 1) // 2
    u1 = gen.uniforms_open(m)
    u2 = gen.uniforms(m)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * m, dtype=float)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n]


def normals_polar(gen, n: int) -> np.ndarray:
    """``n`` standard normals via Marsaglia's polar method.

    Vectorized rejection: each round draws a batch of candidate pairs and
    keeps those inside the unit disc (acceptance ≈ π/4), for at most 64
    rounds.
    """
    if n < 0:
        raise ValidationError(f"n must be non-negative, got {n}")
    out = np.empty(n, dtype=float)
    filled = 0
    for _ in range(64):
        if filled >= n:
            break
        need_pairs = max((n - filled + 1) // 2, 8)
        # Oversample by 1/(π/4) ≈ 1.27 to usually finish in one round.
        m = int(need_pairs * 1.4) + 8
        v1 = 2.0 * gen.uniforms(m) - 1.0
        v2 = 2.0 * gen.uniforms(m) - 1.0
        s = v1 * v1 + v2 * v2
        ok = (s > 0.0) & (s < 1.0)
        v1, v2, s = v1[ok], v2[ok], s[ok]
        factor = np.sqrt(-2.0 * np.log(s) / s)
        pair = np.empty(2 * v1.size, dtype=float)
        pair[0::2] = v1 * factor
        pair[1::2] = v2 * factor
        take = min(pair.size, n - filled)
        out[filled : filled + take] = pair[:take]
        filled += take
    if filled < n:  # pragma: no cover - astronomically unlikely
        raise ValidationError("polar method failed to fill the request")
    return out

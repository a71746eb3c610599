"""Fused strip kernels: shared draws, per-contract arithmetic, bitwise prices.

:func:`strip_partial` is the kernel every Monte Carlo rank task runs — a
single contract is a strip of one — and the sequential references it is
tested against are ``technique.partial`` / ``technique.estimate`` and
:func:`repro.lattice.beg_price`.

Every kernel here obeys one invariant: for each contract in the strip it
performs *exactly* the floating-point operations, in exactly the order,
of that contract priced alone by the sequential reference — only the
**inputs** those operations read (the normal block, the terminal-price
matrix, the lattice mesh) are computed once and shared. Sharing an
identical input array is invisible to IEEE-754 arithmetic, so every strip
price is bitwise equal to the contract's price alone; the
strip-equivalence tests assert the bits, not a tolerance.

What is shared per strip:

* the Gaussian block ``z`` (one Philox/Sobol draw instead of C) and with
  it the model's correlation Cholesky, applied once inside
  ``terminal_from_normals`` / ``paths_from_normals``;
* the terminal-price matrix or path tensor those normals map to;
* a basket's level, once per run of baskets with equal weights (each
  contract is priced from it by ``terminal_from_level``);
* for the lattice, the per-level price mesh the payoffs and intrinsic
  values are evaluated on — and the *calls*: a block of the strip's
  value tensors is stacked into one ``(C_b, t+1, …)`` array that takes
  each backward step as one elementwise update, which no contract's
  plane can observe;
* the lattice's level buffers: three arrays of one block's leaves, per
  strip, that every block and level is written into.

Across the tasks of one backend map (a draw scope, see
:mod:`repro.parallel.backends`) the Philox block itself is shared: same
seed, rank and length on any market is drawn once, read-only. The
kernels here only read ``z``.

What is never shared: anything downstream of a payoff — each contract's
discounted values, sufficient statistics, reduction and finalize run
independently, matching the sequential reference operation for
operation. Techniques without a fused form (control variates, stratified,
user subclasses) fall back to per-contract runs on identically-seeded
generator copies — slower, still bitwise.

What a strip never holds: every contract's array at once. A Monte Carlo
rank reduces each contract's discounted samples to its statistics before
the next contract's vector exists, and the lattice strip is walked in
blocks of at most :data:`LATTICE_BLOCK_BYTES` of leaf tensor (at least
one contract), so neither grows a per-contract temporary C times over.
"""

from __future__ import annotations

import copy
import math
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.lattice.beg import BEGLattice
from repro.mc.qmc import QMCSobol
from repro.mc.statistics import SampleStats
from repro.mc.variance_reduction import (BATCH_PATHS, Antithetic, PlainMC,
                                         _draw_normals)
from repro.payoffs.basket import _LevelBasket
from repro.utils.validation import check_positive, check_positive_int

__all__ = [
    "check_homogeneous",
    "strip_partial",
    "strip_estimate",
    "beg_strip_prices",
    "beg_strip_walk",
    "price_strip",
    "price_task",
]


def check_homogeneous(payoffs: Sequence[Any]) -> bool:
    """Validate the strip's shared draw shape; returns path dependence."""
    if not payoffs:
        raise ValidationError("a strip kernel needs at least one payoff")
    flags = {bool(p.is_path_dependent) for p in payoffs}
    if len(flags) > 1:
        raise ValidationError(
            "strip payoffs must be homogeneous in path dependence; mixing "
            "terminal and path-dependent contracts changes the shared draws"
        )
    return flags.pop()


def _shared_values(model: Any, payoffs: Sequence[Any], expiry: float,
                   z: np.ndarray, steps: Optional[int]) -> Iterator[np.ndarray]:
    """Per-contract discounted payoff samples from one shared normal block.

    Mirrors ``repro.mc.variance_reduction._discounted_payoffs`` with the
    model transform hoisted out of the per-payoff loop: the price matrix /
    path tensor is built here, once, and is identical to what
    ``_discounted_payoffs`` computes from the same ``z``, so each
    contract's samples match it bitwise. The samples themselves are made
    lazily, one contract at a time, so a caller that reduces each vector
    before asking for the next never holds C of them.
    """
    df = float(np.exp(-model.rate * expiry))
    if payoffs[0].is_path_dependent:
        if steps is None:
            raise ValidationError(
                f"{type(payoffs[0]).__name__} is path-dependent: pass steps= "
                f"to the engine"
            )
        paths = model.paths_from_normals(z, expiry, steps)
        return (df * p.path(paths) for p in payoffs)
    prices = model.terminal_from_normals(z, expiry)
    return _discounted(payoffs, prices, df)


def _discounted(payoffs: Sequence[Any], prices: np.ndarray,
                df: float) -> Iterator[np.ndarray]:
    """``df * p.terminal(prices)`` per payoff, lazily; consecutive baskets
    with one ``basket_level`` method and weights of equal bits share one
    level, the only one held and freed before the run's last values are."""
    runs = [(type(p).basket_level, p.weights.tobytes())
            if type(p).terminal is _LevelBasket.terminal else None
            for p in payoffs] + [None]
    level = None
    for j, p in enumerate(payoffs):
        if runs[j] is None:
            yield df * p.terminal(prices)
            continue
        if level is None:
            level = p.basket_level(prices)
        y = p.terminal_from_level(level)  # fresh, so discounted in place
        if runs[j + 1] != runs[j]:
            level = None
        yield np.multiply(y, df, out=y)


def strip_partial(technique: Any, model: Any, payoffs: Sequence[Any],
                  expiry: float, n: int, gen: Any, *,
                  steps: Optional[int] = None,
                  skip: Optional[int] = None) -> List[Any]:
    """One rank's fused partials: element j matches ``technique.partial``
    for payoff j on an identically-seeded generator, bitwise.

    ``skip`` is the QMC point offset (``None`` for stream techniques).
    The shared master ``gen`` ends in the state ``technique.partial``
    would leave it in — the fused draw consumes the same block — so
    batched estimate loops stay aligned.
    """
    payoffs = tuple(payoffs)
    path_dep = check_homogeneous(payoffs)

    kind = type(technique)
    if kind is PlainMC:
        z = _draw_normals(model, gen, n, steps, path_dep)
        return [SampleStats.from_values(y)
                for y in _shared_values(model, payoffs, expiry, z, steps)]

    if kind is Antithetic:
        if n % 2:
            raise ValidationError(
                "antithetic sampling requires an even path count"
            )
        half = n // 2
        z = _draw_normals(model, gen, half, steps, path_dep)
        ys_plus = _shared_values(model, payoffs, expiry, z, steps)
        ys_minus = _shared_values(model, payoffs, expiry, -z, steps)
        return [SampleStats.from_values(0.5 * (yp + ym))
                for yp, ym in zip(ys_plus, ys_minus)]

    if kind is QMCSobol:
        r_count = technique.replicates
        if n % r_count:
            raise ValidationError(
                f"path count {n} must be a multiple of replicates={r_count}"
            )
        per = n // r_count
        offset = 0 if skip is None else int(skip)
        parts: List[List[SampleStats]] = [[] for _ in payoffs]
        for r in range(r_count):
            # One Sobol block per replicate for the whole strip; the
            # exemplar payoff only sets the dimension plan, which the
            # homogeneity check makes strip-wide.
            z = technique._normals_for(model, payoffs[0], steps, per, r,
                                       offset)
            for j, y in enumerate(
                    _shared_values(model, payoffs, expiry, z, steps)):
                parts[j].append(SampleStats.from_values(y))
        return [tuple(p) for p in parts]

    # Generic fallback: no fused form for this technique (control
    # variates, stratified, subclasses). Contract 0 runs on the master
    # generator (advancing it exactly as ``technique.partial`` alone
    # would); the rest run on copies of its pre-call state, i.e. on the
    # identically-seeded substream. A strip of one needs no pre-image.
    pre = copy.deepcopy(gen) if len(payoffs) > 1 else None
    kwargs = {} if skip is None else {"skip": skip}
    return [
        technique.partial(model, payoff, expiry, n,
                          gen if j == 0 else copy.deepcopy(pre),
                          steps=steps, **kwargs)
        for j, payoff in enumerate(payoffs)
    ]


def strip_estimate(technique: Any, model: Any, payoffs: Sequence[Any],
                   expiry: float, n: int, gen: Any, *,
                   steps: Optional[int] = None) -> List[Tuple[float, float, int]]:
    """Sequential fused estimate: element j matches ``technique.estimate``
    for payoff j — same batching loop, same skip bookkeeping, bitwise.

    This is the kernel the batched golden-master replay runs: it must
    mirror :meth:`repro.mc.variance_reduction.Technique.estimate` (and the
    QMC override's per-replicate offsets) exactly, or the corpus digests
    would flag the batched path as a silent rebaseline.
    """
    payoffs = tuple(payoffs)
    check_positive_int("n", n)
    check_positive("expiry", expiry)
    parts: List[List[Any]] = [[] for _ in payoffs]

    if type(technique) is QMCSobol:
        r_count = technique.replicates
        if n % r_count:
            raise ValidationError(
                f"n={n} must be a multiple of replicates={r_count}"
            )
        per_total = n // r_count
        done = 0
        per_batch = max(BATCH_PATHS // r_count, 1)
        while done < per_total:
            b = min(per_batch, per_total - done)
            fused = strip_partial(technique, model, payoffs, expiry,
                                  b * r_count, gen, steps=steps, skip=done)
            for j, part in enumerate(fused):
                parts[j].append(part)
            done += b
    else:
        done = 0
        while done < n:
            b = min(BATCH_PATHS, n - done)
            fused = strip_partial(technique, model, payoffs, expiry, b, gen,
                                  steps=steps)
            for j, part in enumerate(fused):
                parts[j].append(part)
            done += b

    return [technique.finalize(technique.combine(p)) for p in parts]


#: Bytes of level-``steps`` value tensor one lattice block holds. A strip
#: is walked this many bytes of contracts at a time (at least one), so each
#: level's stacked tensors stay cache-sized: 15 contracts of a 64-step
#: two-asset lattice. A single quote is one block.
LATTICE_BLOCK_BYTES = 512 * 1024


def _level(buffer: np.ndarray, contracts: int, t: int, dim: int) -> np.ndarray:
    """The head of a flat strip buffer as a ``(C, t+1, …)`` level tensor."""
    shape = (contracts,) + (t + 1,) * dim
    return buffer[:math.prod(shape)].reshape(shape)


def _stacked_payoffs(lattice: BEGLattice, payoffs: Sequence[Any], t: int,
                     buffer: np.ndarray) -> np.ndarray:
    """Every payoff on level ``t``'s one shared mesh, in ``buffer``."""
    pts = lattice.level_prices(t).reshape(-1, lattice.dim)
    values = _level(buffer, len(payoffs), t, lattice.dim)
    for row, p in zip(values.reshape(len(payoffs), -1), payoffs):
        row[...] = p.terminal(pts)
    return values


def beg_strip_walk(lattice: BEGLattice, payoffs: Sequence[Any], *,
                   american: bool) -> List[float]:
    """Root values of ``payoffs`` on ``lattice``, in strip order.

    The strip is walked in blocks of contracts, each block's value tensors
    stacked into one ``(C_b, t+1, …)`` array that takes the single-run
    :meth:`BEGLattice.step` update in one call per level. Each level's
    price mesh is shared by every contract of a block. The update is
    elementwise, so neither the stacking nor the block a contract lands in
    changes anything it can observe: every root carries the bits of
    ``beg_price`` alone. Leaves and levels go into two buffers in turn,
    the step's scratch and American intrinsic values into a third, all
    three allocated once per strip.
    """
    steps, dim = lattice.steps, lattice.dim
    block = max(1, LATTICE_BLOCK_BYTES // (8 * (steps + 1) ** dim))
    size = min(block, len(payoffs)) * (steps + 1) ** dim
    level_a, level_b, scratch = (np.empty(size) for _ in range(3))
    roots: List[float] = []
    for lo in range(0, len(payoffs), block):
        chunk = payoffs[lo:lo + block]
        values = _stacked_payoffs(lattice, chunk, steps, level_a)
        for t in range(steps - 1, -1, -1):
            level_a, level_b = level_b, level_a
            values = lattice.step(values, t, _level(level_a, len(chunk), t, dim),
                                  _level(scratch, len(chunk), t, dim))
            if american:
                np.maximum(values,
                           _stacked_payoffs(lattice, chunk, t, scratch),
                           out=values)
        roots.extend(values.reshape(len(chunk)).tolist())
    return roots


def beg_strip_prices(model: Any, payoffs: Sequence[Any], expiry: float,
                     steps: int, *, american: bool = False) -> List[float]:
    """Fused BEG backward induction: one lattice, walked by
    :func:`beg_strip_walk`; element j matches ``beg_price(...).price``
    bitwise.

    The lattice geometry (axes, branch probabilities, discount) is built
    once for the whole strip.
    """
    payoffs = tuple(payoffs)
    if not payoffs:
        raise ValidationError("a strip kernel needs at least one payoff")
    lattice = BEGLattice(model, expiry, steps)
    d = lattice.dim
    for j, payoff in enumerate(payoffs):
        if payoff.dim != d:
            raise ValidationError(
                f"strip payoff {j} dim {payoff.dim} does not match model "
                f"dim {d}"
            )
        if payoff.is_path_dependent:
            raise ValidationError(
                "BEG lattice prices non-path-dependent payoffs only"
            )
    return beg_strip_walk(lattice, payoffs, american=american)


# ---------------------------------------------------------------------------
# Serving-layer entry points (lazy imports: these run inside backend
# workers, and repro.serve imports repro.batch lazily in the other
# direction).
# ---------------------------------------------------------------------------


def price_strip(strip: Any) -> List[Any]:
    """Price one :class:`~repro.batch.strip.ContractStrip` through the
    fused engine run; returns one ``PriceQuote`` per member, in order.

    Builds the pricer from the exemplar request exactly as
    :func:`~repro.serve.service.price_request` would (the registry serve
    hook reads only the settings every member shares), then drives it via
    :func:`repro.engine.runner.run_strip`. Price and stderr match each
    member's single-request quote bitwise; ``sim_time`` describes the
    fused run and is shared by all members.
    """
    from repro.engine.registry import default_registry
    from repro.engine.runner import run_strip
    from repro.serve.service import PriceQuote

    spec = default_registry().get(strip.engine)
    if spec.serve is None:
        raise ValidationError(
            f"engine {strip.engine!r} cannot price strips (no serve hook)"
        )
    results = run_strip(spec.serve(strip.exemplar_request()), strip.model,
                        list(strip.payoffs), strip.expiry, strip.p)
    return [PriceQuote(engine=strip.engine, price=r.price, stderr=r.stderr,
                       sim_time=r.sim_time) for r in results]


def price_task(task: Any) -> Any:
    """Polymorphic batch worker: a strip prices fused, a request single.

    Module-level and picklable, so the pricing service keeps exactly one
    ``backend.map`` call per batch whether or not strips formed.
    """
    from repro.batch.strip import ContractStrip

    if isinstance(task, ContractStrip):
        return price_strip(task)
    from repro.serve.service import price_request

    return price_request(task)

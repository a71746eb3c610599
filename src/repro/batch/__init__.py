"""Vectorized batch pricing: columnar contract strips through fused kernels.

The serving layer's unit of amortization. A :class:`ContractStrip` is a
structure-of-arrays view of a *homogeneous* group of
:class:`~repro.serve.batching.PricingRequest`\\ s — one market model, one
expiry, one engine family, identical engine settings, many payoffs — and
:func:`plan_batches` is the planning stage that groups a batch's
cache-missed requests into such strips. One backend task then prices the
whole strip through a fused kernel (:mod:`repro.batch.kernels`): path
generation, the correlation Cholesky and the Sobol/Philox block are paid
once per strip, with only the payoff evaluation vectorized over the strip
axis.

The contract that makes this safe is **bitwise strip equivalence**: every
contract's price out of a fused strip equals the price of its own
single-request run, bit for bit — the fused kernels share the *draws*,
never the per-contract arithmetic or its order. The strip-equivalence test
tier (``tests/test_batch_strip.py``), the ``strip-batching`` determinism
check and the batched golden-master replay all gate on exactly that.
"""

from repro.batch.plan import BatchPlan, plan_batches, task_cost
from repro.batch.strip import ContractStrip, batch_key

__all__ = [
    "ContractStrip",
    "batch_key",
    "BatchPlan",
    "plan_batches",
    "task_cost",
]

"""Old import path of :class:`repro.engine.ParallelMCPricer`.

Every pricer, the portfolio task farm and the run result live in
:mod:`repro.engine`; import them from there. The one name kept here is the
one the end-to-end benchmark's adapter (``benchmarks/e2e/adapters.py``)
still imports from this path.
"""

from repro.engine import ParallelMCPricer

__all__ = ["ParallelMCPricer"]

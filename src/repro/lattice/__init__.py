"""Lattice (tree) pricing engines.

* :func:`binomial_price` — 1-D binomial with CRR, Jarrow–Rudd or Tian
  parameterizations; European and American exercise.
* :class:`BEGLattice` / :func:`beg_price` — the Boyle–Evnine–Gibbs (1989)
  *multidimensional* binomial lattice: ``d`` correlated assets, ``2^d``
  branches per node, ``(n+1)^d`` nodes per level. This is the lattice the
  paper's multidimensional evaluation parallelizes; its per-level cost and
  memory blow up exponentially in ``d`` — exactly the crossover against
  Monte Carlo measured in experiment F6.
"""

from repro.lattice.result import LatticeResult
from repro.lattice.binomial import binomial_price, binomial_parameters
from repro.lattice.beg import BEGLattice, beg_price, beg_probabilities

__all__ = [
    "LatticeResult",
    "binomial_price",
    "binomial_parameters",
    "BEGLattice",
    "beg_price",
    "beg_probabilities",
]

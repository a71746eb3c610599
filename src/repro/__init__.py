"""repro — parallel algorithms for pricing multidimensional financial
derivatives, with a reproducible performance-evaluation harness.

A from-scratch reproduction of the system behind *"Performance Evaluation
of Parallel Algorithms for Pricing Multidimensional [Financial
Derivatives]"* (ICPP 2002). See DESIGN.md for the system inventory and the
paper-text-mismatch note; EXPERIMENTS.md for measured results.

Quick start::

    from repro import MultiAssetGBM, BasketCall, ParallelMCPricer

    model = MultiAssetGBM.equicorrelated(4, spot=100, vol=0.25, rate=0.05, rho=0.3)
    payoff = BasketCall([0.25] * 4, strike=100.0)
    pricer = ParallelMCPricer(n_paths=200_000, seed=42)
    for p in (1, 2, 4, 8):
        r = pricer.price(model, payoff, expiry=1.0, p=p)
        print(p, r.price, r.sim_time)

Subpackages
-----------
``repro.rng``       RNG substrate (LCG, Philox, Sobol, Halton, substreams)
``repro.market``    multi-asset GBM, Merton, Heston, correlation
``repro.payoffs``   contracts (vanilla/basket/rainbow/Asian/barrier/...)
``repro.analytic``  closed-form baselines
``repro.mc``        sequential Monte Carlo + variance reduction + LSM
``repro.lattice``   binomial and BEG lattices
``repro.pde``       finite differences (θ-scheme, PSOR, ADI)
``repro.parallel``  partitioners, backends, simulated cluster
``repro.engine``    the parallel pricers (the paper's contribution)
``repro.core``      re-exports of the above + the portfolio scheduler
``repro.perf``      speedup/efficiency/isoefficiency harness
``repro.obs``       tracing + metrics (Perfetto traces, snapshots)
``repro.workloads`` seeded synthetic workloads
"""

from repro.errors import (
    ReproError,
    ValidationError,
    ModelError,
    ConvergenceError,
    PartitionError,
    BackendError,
    StabilityError,
)
from repro.market import MultiAssetGBM, constant_correlation
from repro.payoffs import (
    Payoff,
    Call,
    Put,
    DigitalCall,
    DigitalPut,
    BasketCall,
    BasketPut,
    GeometricBasketCall,
    GeometricBasketPut,
    CallOnMax,
    CallOnMin,
    PutOnMax,
    PutOnMin,
    SpreadCall,
    ExchangeOption,
    AsianArithmeticCall,
    AsianGeometricCall,
    BarrierOption,
)
from repro.mc import (
    MonteCarloEngine,
    MCResult,
    PlainMC,
    Antithetic,
    ControlVariate,
    Stratified,
    QMCSobol,
    LongstaffSchwartz,
    lsm_price,
)
from repro.lattice import binomial_price, beg_price, BEGLattice
from repro.pde import fd_price, adi_price, ADISolver
from repro.parallel import (
    MachineSpec,
    SimulatedCluster,
    SerialBackend,
    ThreadBackend,
    ProcessBackend,
)
from repro.engine import (
    ParallelMCPricer,
    ParallelLatticePricer,
    ParallelPDEPricer,
    ParallelLSMPricer,
    ParallelRunResult,
    WorkModel,
)
from repro.obs import MetricsRegistry, Tracer, write_chrome_trace
from repro.perf import ScalingSeries, ScalingExperiment
from repro.rng import Lcg64, Philox4x32, SobolSequence

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ValidationError",
    "ModelError",
    "ConvergenceError",
    "PartitionError",
    "BackendError",
    "StabilityError",
    "MultiAssetGBM",
    "constant_correlation",
    "Payoff",
    "Call",
    "Put",
    "DigitalCall",
    "DigitalPut",
    "BasketCall",
    "BasketPut",
    "GeometricBasketCall",
    "GeometricBasketPut",
    "CallOnMax",
    "CallOnMin",
    "PutOnMax",
    "PutOnMin",
    "SpreadCall",
    "ExchangeOption",
    "AsianArithmeticCall",
    "AsianGeometricCall",
    "BarrierOption",
    "MonteCarloEngine",
    "MCResult",
    "PlainMC",
    "Antithetic",
    "ControlVariate",
    "Stratified",
    "QMCSobol",
    "LongstaffSchwartz",
    "lsm_price",
    "binomial_price",
    "beg_price",
    "BEGLattice",
    "fd_price",
    "adi_price",
    "ADISolver",
    "MachineSpec",
    "SimulatedCluster",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "ParallelMCPricer",
    "ParallelLatticePricer",
    "ParallelPDEPricer",
    "ParallelLSMPricer",
    "ParallelRunResult",
    "WorkModel",
    "Tracer",
    "MetricsRegistry",
    "write_chrome_trace",
    "ScalingSeries",
    "ScalingExperiment",
    "Lcg64",
    "Philox4x32",
    "SobolSequence",
    "__version__",
]

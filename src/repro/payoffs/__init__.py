"""Contracts and payoff functions for multidimensional derivatives.

Every payoff maps a block of terminal prices ``(n, d)`` (or full paths
``(n, m+1, d)`` for path-dependent contracts) to a vector of ``n`` payoffs,
fully vectorized. The same objects drive all three engines: Monte Carlo
applies them to simulated paths, the lattice applies :meth:`terminal` at
the leaves and as the early-exercise intrinsic value, and the PDE engines
use them for terminal and boundary conditions.
"""

from repro.payoffs.base import Payoff
from repro.payoffs.vanilla import (
    Call,
    Put,
    DigitalCall,
    DigitalPut,
    Straddle,
    Forward,
)
from repro.payoffs.basket import (
    BasketCall,
    BasketPut,
    GeometricBasketCall,
    GeometricBasketPut,
)
from repro.payoffs.rainbow import (
    CallOnMax,
    CallOnMin,
    PutOnMax,
    PutOnMin,
    SpreadCall,
    ExchangeOption,
)
from repro.payoffs.asian import (
    AsianArithmeticCall,
    AsianArithmeticPut,
    AsianGeometricCall,
)
from repro.payoffs.barrier import BarrierOption
from repro.payoffs.power import PowerCall, PowerPut
from repro.payoffs.lookback import (
    FloatingStrikeLookbackCall,
    FloatingStrikeLookbackPut,
    FixedStrikeLookbackCall,
    FixedStrikeLookbackPut,
)

__all__ = [
    "Payoff",
    "Call",
    "Put",
    "DigitalCall",
    "DigitalPut",
    "Straddle",
    "Forward",
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
    "AsianArithmeticPut",
    "AsianGeometricCall",
    "BarrierOption",
    "PowerCall",
    "PowerPut",
    "FloatingStrikeLookbackCall",
    "FloatingStrikeLookbackPut",
    "FixedStrikeLookbackCall",
    "FixedStrikeLookbackPut",
]

"""Risk-scenario workload tier: seeded shocks, full-revaluation VaR/ES.

ROADMAP item 3 — the Premia/Nsp-style risk-management benchmark as a
first-class traffic generator over the parallel pricing stack:

* :mod:`~repro.risk.scenarios` — canonical :class:`Scenario` shocks with
  stable hashes; stress / historical / axis-sweep / horizon generators,
  all byte-reproducible in their seed, with PSD-repaired correlations.
* :mod:`~repro.risk.var` — sort-based VaR/ES estimators, the
  full-revaluation sweep through the shared
  :class:`~repro.serve.PriceCache`, delta-hedged P&L, and the
  ``kind="risk"`` ledger records behind ``repro risk``.
* :mod:`~repro.risk.analytic` — closed-form portfolio VaR/ES for
  geometric-basket books (the ``-m risk`` backtest oracle).
* :mod:`~repro.risk.bridge` — scenario sweeps as lane-tagged gateway
  traffic (``repro gateway --book risk``) and the risk book for the
  seeded load generator.
"""

from repro.risk.analytic import (analytic_es, analytic_var, portfolio_value,
                                 shock_moments)
from repro.risk.bridge import (risk_book, risk_run_record, run_risk_sweep,
                               sweep_requests, sweep_schedule)
from repro.risk.scenarios import (Scenario, axis_sweep, base_scenario,
                                  historical_scenarios, horizon_scenarios,
                                  repair_correlation, scenario_digest,
                                  shock_book, shock_bytes, stress_scenarios)
from repro.risk.var import (RiskConfig, RiskReport, build_scenarios,
                            hedged_pnl, portfolio_deltas, revalue_book,
                            var_es)

__all__ = [
    "Scenario",
    "axis_sweep",
    "base_scenario",
    "historical_scenarios",
    "horizon_scenarios",
    "repair_correlation",
    "scenario_digest",
    "shock_book",
    "shock_bytes",
    "stress_scenarios",
    "RiskConfig",
    "RiskReport",
    "build_scenarios",
    "hedged_pnl",
    "portfolio_deltas",
    "revalue_book",
    "var_es",
    "analytic_es",
    "analytic_var",
    "portfolio_value",
    "shock_moments",
    "risk_book",
    "risk_run_record",
    "run_risk_sweep",
    "sweep_requests",
    "sweep_schedule",
]

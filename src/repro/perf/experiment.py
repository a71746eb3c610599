"""Sweep runner producing the paper-style scaling tables.

Wraps any pricer exposing ``price(model, payoff, expiry, p) →
ParallelRunResult`` and runs it over a processor list, returning a
:class:`~repro.perf.metrics.ScalingSeries` plus the full per-run results —
the unit every benchmark in ``benchmarks/`` is built from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.perf.laws import fit_serial_fraction, karp_flatt
from repro.perf.metrics import ScalingSeries
from repro.utils.formatting import Table

__all__ = ["ScalingExperiment"]


@dataclass
class ScalingExperiment:
    """One strong-scaling sweep of a parallel pricer.

    Parameters
    ----------
    pricer : object with ``price(model, payoff, expiry, p)``.
    model, payoff, expiry : the priced contract.
    label : experiment name for tables.
    """

    pricer: object
    model: object
    payoff: object
    expiry: float
    label: str = ""

    def run(self, p_list) -> tuple[ScalingSeries, list]:
        """Execute the sweep; returns (series, per-run results)."""
        p_seq = list(p_list)
        if not p_seq:
            raise ValidationError("p_list must be non-empty")
        results = [self.pricer.price(self.model, self.payoff, self.expiry, p)
                   for p in p_seq]
        series = ScalingSeries.from_results(results, label=self.label)
        return series, results

    def report(self, p_list) -> str:
        """Run and render the full diagnostic table (T, S, E, comm%, f_KF)."""
        series, results = self.run(p_list)
        table = Table(
            ["P", "T(P) [s]", "speedup", "efficiency", "comm %", "idle %", "Karp-Flatt f"],
            title=self.label or None,
            floatfmt=".4g",
        )
        sp = series.speedups
        eff = series.efficiencies
        for i, r in enumerate(results):
            kf = karp_flatt(float(sp[i]), r.p) if r.p >= 2 else 0.0
            comm_pct = 100.0 * r.comm_time / r.sim_time if r.sim_time > 0 else 0.0
            idle_pct = 100.0 * r.idle_time / r.sim_time if r.sim_time > 0 else 0.0
            table.add_row([r.p, r.sim_time, float(sp[i]), float(eff[i]),
                           comm_pct, idle_pct, kf])
        lines = [table.render()]
        if len(series.ps) >= 2 and series.ps[0] == 1:
            f, rms = fit_serial_fraction(series.ps, series.times)
            lines.append(f"Amdahl fit: serial fraction f = {f:.4f} (rms {rms:.3g})")
        return "\n".join(lines)

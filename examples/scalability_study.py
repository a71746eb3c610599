"""The paper's headline experiment, end to end: strong-scaling all three
parallel pricing algorithms on the simulated multiprocessor, fitting
Amdahl serial fractions, and printing the full diagnostic tables.

Run:  python examples/scalability_study.py
Optionally tweak the machine:  --alpha 5e-6 --beta 1e-9
"""

import argparse

from repro import MachineSpec
from repro.engine import ParallelLatticePricer, ParallelMCPricer, ParallelPDEPricer
from repro.perf import ScalingExperiment
from repro.workloads import basket_workload, rainbow_workload, spread_workload

P_LIST = [1, 2, 4, 8, 16, 32]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=50e-6,
                        help="message latency in seconds (default 2002-era 50µs)")
    parser.add_argument("--beta", type=float, default=1e-8,
                        help="seconds per byte (default 100 MB/s)")
    parser.add_argument("--paths", type=int, default=200_000)
    parser.add_argument("--steps", type=int, default=200)
    args = parser.parse_args()
    spec = MachineSpec(alpha=args.alpha, beta=args.beta)

    mc_w = basket_workload(4)
    experiments = [
        ScalingExperiment(
            ParallelMCPricer(args.paths, seed=1, spec=spec),
            mc_w.model, mc_w.payoff, mc_w.expiry,
            label=f"Monte Carlo — 4-asset basket, N={args.paths}",
        ),
    ]
    lat_w = rainbow_workload()
    experiments.append(
        ScalingExperiment(
            ParallelLatticePricer(args.steps, spec=spec),
            lat_w.model, lat_w.payoff, lat_w.expiry,
            label=f"BEG lattice — 2-asset max-call, {args.steps} steps",
        )
    )
    pde_w = spread_workload()
    experiments.append(
        ScalingExperiment(
            ParallelPDEPricer(n_space=128, n_time=32, spec=spec),
            pde_w.model, pde_w.payoff, pde_w.expiry,
            label="ADI PDE — 2-asset spread call, 128² grid",
        )
    )

    print(f"simulated machine: flop_time={spec.flop_time:g}s  "
          f"alpha={spec.alpha:g}s  beta={spec.beta:g}s/B\n")
    for exp in experiments:
        print(exp.report(P_LIST))
        print()

    print("Reading the tables: Monte Carlo scales almost linearly (its "
          "reduction payload is O(1)); the lattice saturates early (one halo "
          "exchange per time level); the PDE peaks and then degrades (two "
          "all-to-all transposes per step). This is the shape the ICPP 2002 "
          "evaluation reports — reproduced here deterministically.\n")

    # Make the signatures visible: trace one run of each engine at P=4 and
    # draw its timeline.
    from repro.perf import render_gantt

    print("Execution timelines at P = 4 (# compute, ~ communication, . idle):\n")
    for label, pricer, w in (
        ("Monte Carlo", ParallelMCPricer(args.paths, seed=1, spec=spec,
                                         record=True), mc_w),
        ("BEG lattice", ParallelLatticePricer(min(args.steps, 64), spec=spec,
                                              record=True), lat_w),
        ("ADI PDE", ParallelPDEPricer(n_space=64, n_time=6, spec=spec,
                                      record=True), pde_w),
    ):
        r = pricer.price(w.model, w.payoff, w.expiry, 4)
        print(f"{label}:")
        print(render_gantt(r.meta["cluster"], width=68))
        print()


if __name__ == "__main__":
    main()

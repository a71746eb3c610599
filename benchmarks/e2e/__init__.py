"""The repo's one end-to-end benchmark: five seeded workloads over the
whole quote path, end-to-end metrics with regression bounds, and
per-layer attribution from a separate traced run.

Entry points (see README.md in this directory):

* ``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
  --trace 0|1`` — one run of one workload (what ``BENCHMARK.json`` names);
* ``python3 benchmarks/e2e/collect.py`` — a set of runs into one file;
* ``python3 benchmarks/e2e/compare.py A.json [B.json]`` — spreads and
  parent-vs-change verdicts against the bounds in ``BENCHMARK.json``.

Only :mod:`benchmarks.e2e.adapters` imports ``repro.*``.
"""

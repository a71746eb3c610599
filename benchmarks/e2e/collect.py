"""Make a set of runs and keep every one of them in one JSON file.

    python3 benchmarks/e2e/collect.py --out A.json --seeds 1-10
    python3 benchmarks/e2e/collect.py --out results/BENCH_12.json \\
        --seeds 12 --repeats 3 --traced

Each run is a fresh ``run.py`` process started in the foreground and
waited for (peak memory and import state must not carry over from one
run to the next), so nothing outlives this command either. The file is
what ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:1] = [str(HERE.parents[1])]

from benchmarks.e2e import schema  # noqa: E402

#: The driver allows a run 180 s.
RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> list[int]:
    """``"3"``, ``"1,5,9"`` or ``"1-10"``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run ``run.py`` once; the parsed result line plus the host facts."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n"
                         f"{done.stdout}{done.stderr}")
    host = next((json.loads(line[len("host: "):]) for line in lines
                 if line.startswith("host: ")), {})
    return {"host": host, "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", default=",".join(schema.WORKLOADS))
    parser.add_argument("--seeds", default="12")
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload and seed")
    parser.add_argument("--traced", action="store_true",
                        help="add one traced run per workload and seed")
    parser.add_argument("--seconds", type=int, default=schema.RUN_SECONDS)
    args = parser.parse_args(argv)
    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            for trace in [0] * args.repeats + [1] * args.traced:
                run = one_run(workload, seed, args.seconds, trace)
                runs.append(run)
                shown = ", ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in list(run["result"]["metrics"].items())[:5])
                print(f"{workload} seed={seed} trace={trace} "
                      f"failed={run['result']['failed']}: {shown}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print(f"wrote {len(runs)} runs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics, checked against BENCHMARK.json bounds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload sweep-cold --runs 10 [--first-seed 1]

Runs the benchmark once per seed, sequentially, and prints each metric's
median and interquartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), flagging any spread above a third
of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {entry["name"]: entry["bound"] for entry in contract["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(contract["run_seconds"]), "--trace", "0"]
        output = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
        if output.returncode != 0:
            print(output.stdout[-3000:], output.stderr[-3000:], sep="\n")
            return 1
        result = json.loads(output.stdout.strip().splitlines()[-1])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{name}={values[name][-1]:.4g}" for name in bounds),
              flush=True)
    steady = True
    for name, bound in bounds.items():
        spread = stats.quartile_spread(values[name])
        flag = "ok" if spread < bound / 3 else "WIDE"
        steady &= flag == "ok" or name == "setup_s"
        print(f"{name:20s} median={statistics.median(values[name]):.6g} spread={spread:.4f} "
              f"bound={bound} {flag}")
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())

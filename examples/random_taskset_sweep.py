#!/usr/bin/env python3
"""Random task-set sweep (a scaled-down Figure 6(a)).

Generates random task sets of increasing size at 70 % worst-case utilisation,
schedules each with ACS and WCS, simulates both under the truncated-normal
workload and prints the mean energy improvement per (task count, BCEC/WCEC
ratio) point — the series of the paper's Figure 6(a).  The sweep is a
scenario document run by the scenario engine, the same way
``repro run examples/scenarios/figure6a.toml`` runs the full figure.

Run with:  python examples/random_taskset_sweep.py            (a few minutes)
           python examples/random_taskset_sweep.py --quick    (seconds)
"""

import argparse

from repro.scenarios import ScenarioEngine, ScenarioSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="tiny sample sizes for a fast demo")
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (any value gives identical results)")
    args = parser.parse_args()

    if args.quick:
        task_counts, ratios, tasksets, hyperperiods = [2, 4], [0.1, 0.9], 2, 10
    else:
        task_counts, ratios, tasksets, hyperperiods = [2, 4, 6], [0.1, 0.5, 0.9], 3, 20
    spec = ScenarioSpec.from_dict({
        "kind": "comparison",
        "name": "random-taskset-sweep",
        "taskset": {"source": "random", "utilization": 0.7},
        "simulation": {"hyperperiods": hyperperiods, "seed": args.seed,
                       "repetitions": tasksets},
        "matrix": {"taskset.n_tasks": task_counts, "taskset.ratio": ratios},
    })

    result = ScenarioEngine().run(spec, n_jobs=args.jobs)
    print("Improvement of ACS over WCS (percent, runtime energy):")
    print(result.to_markdown())
    print()
    print("Paper (Fig. 6a): improvement grows with the task count, peaks ≈60 % at ratio 0.1, "
          "and vanishes as the ratio approaches 1.")


if __name__ == "__main__":
    main()

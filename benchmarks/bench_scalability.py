"""Benchmark: multicore scalability sweep at laptop scale.

Regenerates a scaled-down version of the `repro scalability` report — CNC
partitioned across 1, 2 and 4 cores with the packing (ffd) and balancing
(wfd, energy) heuristics — through the scenario engine and asserts its shape:

* balanced partitions must beat the single-core baseline by a wide margin
  (the quadratic energy law turns evenly spread slack into superlinear
  savings);
* first-fit packs the whole set onto one core whenever it fits, so its
  energy must equal the m=1 run exactly (paired seeding);
* nothing misses a deadline.
"""

from repro.scenarios import ScenarioEngine, ScenarioSpec

SPEC = ScenarioSpec.from_dict({
    "kind": "multicore",
    "name": "scalability-bench",
    "taskset": {"source": "cnc", "ratio": 0.5, "utilization": 0.7},
    "offline": {"methods": ["acs"], "baseline": "acs"},
    "simulation": {"hyperperiods": 10, "seed": 2005},
    "multicore": {"cores": [1, 2, 4], "partitioners": ["ffd", "wfd", "energy"]},
})


def test_scalability(benchmark, run_once):
    result = run_once(benchmark, ScenarioEngine().run, SPEC)

    print()
    print("Multicore scalability (CNC, ACS per core, greedy reclamation):")
    print(result.to_markdown())

    def energy(n_cores, partitioner):
        point = result.point(cores=n_cores, partitioner=partitioner)
        return point["mean_energy_per_hyperperiod"]

    def improvement(n_cores, partitioner):
        baseline = energy(1, partitioner)
        return 100.0 * (baseline - energy(n_cores, partitioner)) / baseline

    assert all(point["deadline_misses"] == 0 for point in result.points)
    # Packing: first-fit leaves everything on core 0, bitwise-equal to m=1.
    assert improvement(4, "ffd") == 0.0
    # Balancing: spreading a 0.7-utilisation set over 4 cores must save big.
    assert improvement(4, "wfd") > 50.0
    assert improvement(4, "energy") > 50.0
    # More cores never hurt a balancing heuristic on this workload.
    assert energy(4, "wfd") <= energy(2, "wfd")

"""Benchmark: one random-taskset sweep, serial vs process pool.

Runs the same ``repro sweep``-shaped scenario once in-process and once on a
worker pool, asserts the two reports are byte-identical (the engine's
determinism contract) and prints both wall-clock times.  The speedup depends
on core count and on how evenly the NLP sizes are distributed over the
workers, so only determinism — not a minimum speedup — is asserted.
"""

import multiprocessing
import time

from repro.scenarios import ScenarioEngine, ScenarioSpec
from repro.utils.tables import format_markdown_table

N_TASKSETS = 8
SEED = 2005
#: Divisor-friendly pool: keeps every NLP small so the benchmark finishes
#: in seconds while still giving the pool real work to distribute.
PERIODS = [10.0, 20.0, 40.0]

SPEC = ScenarioSpec.from_dict({
    "kind": "comparison",
    "name": "sweep",
    "taskset": {"source": "random", "n_tasks": 3, "periods": PERIODS},
    "simulation": {"hyperperiods": 20, "seed": SEED, "repetitions": N_TASKSETS},
})


def _sweep(jobs: int):
    started = time.perf_counter()
    result = ScenarioEngine().run(SPEC, n_jobs=jobs)
    return result, time.perf_counter() - started


def _run_benchmark():
    serial, serial_seconds = _sweep(jobs=1)
    workers = max(2, min(4, multiprocessing.cpu_count()))
    parallel, parallel_seconds = _sweep(jobs=workers)
    return serial, parallel, serial_seconds, parallel_seconds, workers


def _mean_improvement(result):
    (point,) = result.points
    return point["methods"]["acs"]["mean_improvement_percent"]


def test_parallel_sweep(benchmark, run_once):
    serial, parallel, serial_seconds, parallel_seconds, workers = run_once(
        benchmark, _run_benchmark)

    print()
    print(f"Sweep: {N_TASKSETS} random task sets, serial vs {workers} workers")
    print(format_markdown_table(
        ["mode", "wall-clock s", "mean acs improvement %"],
        [["serial (jobs=1)", serial_seconds, _mean_improvement(serial)],
         [f"parallel (jobs={workers})", parallel_seconds, _mean_improvement(parallel)]]))

    # The determinism contract: identical reports regardless of worker count.
    assert serial.to_markdown() == parallel.to_markdown()
    assert serial.points == parallel.points

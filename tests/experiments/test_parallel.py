"""Serial/parallel equivalence of the batched harness and the seed derivation."""

import numpy as np
import pytest

from repro.core.errors import ExperimentError
from repro.experiments.harness import (
    ComparisonConfig,
    ComparisonJob,
    make_schedulers,
    run_comparisons,
    scheduler_names,
)
from repro.experiments.seeding import derive_rng, derive_seed
from repro.reporting.serialization import scenario_result_to_dict
from repro.scenarios import MemoryStore, ScenarioEngine, ScenarioSpec

#: Divisor-friendly pool: hyperperiod ≤ 20, so the NLPs stay tiny and fast.
_FAST_PERIODS = [10.0, 20.0]

#: The `repro sweep` shape: one point, one random task set per repetition.
FAST_SWEEP = ScenarioSpec.from_dict({
    "kind": "comparison",
    "name": "sweep",
    "taskset": {"source": "random", "n_tasks": 2, "periods": _FAST_PERIODS},
    "simulation": {"hyperperiods": 4, "seed": 42, "repetitions": 3},
})


def _run_sweep(jobs: int):
    """Run FAST_SWEEP; returns the result and the engine (whose store holds the payloads)."""
    engine = ScenarioEngine(MemoryStore())
    return engine.run(FAST_SWEEP, n_jobs=jobs), engine


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)

    def test_path_sensitive(self):
        seeds = {derive_seed(7), derive_seed(7, 0), derive_seed(7, 1),
                 derive_seed(7, 0, 0), derive_seed(7, 0, 1), derive_seed(8, 0, 0)}
        assert len(seeds) == 6

    def test_order_sensitive(self):
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)

    def test_fits_in_31_bits(self):
        for path in [(0,), (1, 2), (3, 4, 5)]:
            assert 0 <= derive_seed(1234, *path) < 2**31

    def test_derive_rng_reproducible(self):
        a = derive_rng(9, 1).integers(0, 1 << 30, size=4)
        b = derive_rng(9, 1).integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)

    def test_config_with_derived_seed(self):
        config = ComparisonConfig(seed=99)
        derived = config.with_derived_seed(0, 3)
        assert derived.seed == derive_seed(99, 0, 3)
        assert config.seed == 99  # original untouched
        assert ComparisonConfig(seed=None).with_derived_seed(1).seed is None


class TestSchedulerRegistry:
    def test_known_names(self):
        assert {"wcs", "acs"}.issubset(scheduler_names())

    def test_make_schedulers(self, processor):
        schedulers = make_schedulers(["wcs", "acs"], processor)
        assert list(schedulers) == ["wcs", "acs"]

    def test_unknown_rejected(self, processor):
        with pytest.raises(ExperimentError):
            make_schedulers(["wcs", "oracle"], processor)


class TestComparisonJob:
    def test_needs_exactly_one_taskset_source(self, two_task_set, processor):
        with pytest.raises(ExperimentError):
            ComparisonJob(processor=processor, config=ComparisonConfig())
        with pytest.raises(ExperimentError):
            ComparisonJob(processor=processor, config=ComparisonConfig(),
                          taskset=two_task_set,
                          taskset_config=object())  # both given

    def test_explicit_taskset_job(self, two_task_set, processor):
        job = ComparisonJob(processor=processor,
                            config=ComparisonConfig(n_hyperperiods=3, seed=1),
                            taskset=two_task_set)
        (result,) = run_comparisons([job])
        assert set(result.methods()) == {"wcs", "acs"}

    def test_random_job_requires_seed(self, processor):
        from repro.workloads.random_tasksets import RandomTaskSetConfig
        with pytest.raises(ExperimentError):
            ComparisonJob(processor=processor, config=ComparisonConfig(),
                          taskset_config=RandomTaskSetConfig())

    def test_rejects_nonpositive_jobs(self, two_task_set, processor):
        job = ComparisonJob(processor=processor, config=ComparisonConfig(),
                            taskset=two_task_set)
        with pytest.raises(ExperimentError):
            run_comparisons([job], n_jobs=0)


class TestSerialParallelEquivalence:
    def test_sweep_results_bitwise_identical(self):
        serial, serial_engine = _run_sweep(jobs=1)
        parallel, parallel_engine = _run_sweep(jobs=2)
        keys = list(serial_engine.compile(FAST_SWEEP).units)
        assert len(keys) == 3
        for key in keys:
            left, right = serial_engine.store.get(key), parallel_engine.store.get(key)
            assert left["taskset"] == right["taskset"]
            # Bitwise: exact float equality of every method's energies, not approx.
            assert left["methods"] == right["methods"]
        assert serial.to_markdown() == parallel.to_markdown()

    def test_sweep_json_identical_up_to_wall_clock(self):
        serial = scenario_result_to_dict(_run_sweep(jobs=1)[0])
        parallel = scenario_result_to_dict(_run_sweep(jobs=2)[0])
        serial.pop("elapsed_seconds")
        parallel.pop("elapsed_seconds")
        assert serial == parallel

    def test_rerun_is_reproducible(self):
        first, _ = _run_sweep(jobs=1)
        second, _ = _run_sweep(jobs=1)
        assert first.to_markdown() == second.to_markdown()


class TestFigureParallelEquivalence:
    def test_figure6a_jobs_equivalent(self):
        spec = ScenarioSpec.from_dict({
            "kind": "comparison",
            "name": "figure6a",
            "taskset": {"source": "random", "periods": _FAST_PERIODS},
            "simulation": {"hyperperiods": 3, "seed": 11, "repetitions": 2},
            "matrix": {"taskset.n_tasks": [2], "taskset.ratio": [0.1, 0.5]},
        })
        serial = ScenarioEngine().run(spec, n_jobs=1)
        parallel = ScenarioEngine().run(spec, n_jobs=2)
        # Exact equality of every improvement and WCS/ACS energy aggregate.
        assert serial.points == parallel.points

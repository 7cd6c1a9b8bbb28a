"""Tests for the multicore scalability scenario (energy across cores x partitioners)."""

import json

import pytest

from repro.power.presets import ideal_processor
from repro.reporting.serialization import scenario_result_to_dict
from repro.scenarios import ScenarioEngine, ScenarioError, ScenarioSpec, TasksetSpec, run_unit
from repro.scenarios.engine import build_taskset


def scalability_spec(**taskset):
    return ScenarioSpec.from_dict({
        "kind": "multicore",
        "name": "scalability",
        "taskset": {"source": "cnc", "ratio": 0.5, "utilization": 0.7, **taskset},
        "offline": {"methods": ["acs"], "baseline": "acs"},
        "simulation": {"hyperperiods": 3, "seed": 2005},
        "multicore": {"cores": [1, 2], "partitioners": ["ffd", "wfd"]},
    })


QUICK = scalability_spec()


def energy(result, n_cores, partitioner):
    return result.point(cores=n_cores, partitioner=partitioner)["mean_energy_per_hyperperiod"]


def improvement_over_single_core(result, n_cores, partitioner):
    baseline = energy(result, 1, partitioner)
    return 100.0 * (baseline - energy(result, n_cores, partitioner)) / baseline


@pytest.fixture(scope="module")
def result():
    return ScenarioEngine().run(QUICK)


class TestSweep:
    def test_grid_is_complete(self, result):
        assert len(result.points) == 4
        for n_cores in (1, 2):
            for partitioner in ("ffd", "wfd"):
                point = result.point(cores=n_cores, partitioner=partitioner)
                assert point["deadline_misses"] == 0
                assert point["mean_energy_per_hyperperiod"] > 0

    def test_balancing_beats_packing_at_m2(self, result):
        # WFD spreads the CNC set over both cores; FFD packs it onto one.
        # With the quadratic energy law the balanced partition must win big.
        assert energy(result, 2, "wfd") < 0.8 * energy(result, 2, "ffd")
        assert improvement_over_single_core(result, 2, "wfd") > 20.0

    def test_identical_partitions_give_identical_energy(self, result):
        # FFD at m=2 packs everything onto core 0, i.e. the same partition as
        # m=1 — the paired seeding must make the energies exactly equal.
        assert energy(result, 2, "ffd") == energy(result, 1, "ffd")
        assert improvement_over_single_core(result, 2, "ffd") == 0.0

    def test_markdown_report(self, result):
        report = result.to_markdown()
        assert "energy / hyperperiod" in report
        assert "improvement vs m=1 %" in report
        assert "ffd" in report and "wfd" in report

    def test_parallel_matches_serial(self, result):
        parallel = ScenarioEngine().run(QUICK, n_jobs=2)
        assert parallel.points == result.points
        assert parallel.to_markdown() == result.to_markdown()

    def test_serialization_round_trip_shape(self, result):
        data = scenario_result_to_dict(result)
        assert json.loads(json.dumps(data)) == data
        assert data["scenario"]["multicore"]["cores"] == [1, 2]
        assert len(data["points"]) == 4
        for point in data["points"]:
            assert point["mean_energy_per_hyperperiod"] > 0
            assert {"max_core_utilization", "used_cores", "deadline_misses"} <= set(point)


class TestPoint:
    def test_single_point_runs(self):
        engine = ScenarioEngine()
        compiled = engine.compile(QUICK)
        ((_, unit, _),) = [item for item in engine.iter_units(compiled)
                           if item[2] == "cores=2 partitioner=wfd"]
        payload = run_unit(unit)
        assert payload["n_cores"] == 2
        assert payload["partitioner"] == "wfd"
        assert payload["deadline_misses"] == 0

    def test_unknown_application_rejected(self):
        with pytest.raises(ScenarioError, match="taskset.source"):
            scalability_spec(source="satellite")

    def test_gap_application_builds(self):
        taskset = build_taskset(TasksetSpec(source="gap", gap_tasks=5), ideal_processor())
        assert len(taskset) == 5

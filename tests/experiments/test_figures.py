"""Smoke tests for the Figure 6(a)/6(b) scenarios (tiny configurations)."""

import pytest

from repro.scenarios import ScenarioEngine, ScenarioError, ScenarioSpec


def _figure6b_document(sources):
    return {
        "kind": "comparison",
        "name": "figure6b",
        "taskset": {"source": "cnc", "utilization": 0.7, "gap_tasks": 5},
        "simulation": {"hyperperiods": 3, "seed": 7},
        "matrix": {"taskset.source": sources, "taskset.ratio": [0.1, 0.9]},
    }


class TestFigure6a:
    @pytest.fixture(scope="class")
    def result(self):
        spec = ScenarioSpec.from_dict({
            "kind": "comparison",
            "name": "figure6a",
            "taskset": {"source": "random", "utilization": 0.7},
            "simulation": {"hyperperiods": 5, "seed": 7, "repetitions": 1},
            "matrix": {"taskset.n_tasks": [2, 3], "taskset.ratio": [0.1, 0.9]},
        })
        return ScenarioEngine().run(spec)

    def test_all_points_present(self, result):
        assert len(result.points) == 4
        assert result.point(n_tasks=2, ratio=0.1)["coords"]["taskset.n_tasks"] == 2
        with pytest.raises(KeyError):
            result.point(n_tasks=10, ratio=0.1)

    def test_no_deadline_misses(self, result):
        assert all(p["deadline_misses"] == 0 for p in result.points)

    def test_low_ratio_beats_high_ratio(self, result):
        """More workload variation → more opportunity for ACS (the figure's main trend)."""
        for n_tasks in (2, 3):
            low = result.point(n_tasks=n_tasks, ratio=0.1)["methods"]["acs"]
            high = result.point(n_tasks=n_tasks, ratio=0.9)["methods"]["acs"]
            assert low["mean_improvement_percent"] >= high["mean_improvement_percent"] - 2.0

    def test_series_and_markdown(self, result):
        series = [p["coords"]["taskset.n_tasks"] for p in result.points
                  if p["coords"]["taskset.ratio"] == 0.1]
        assert series == [2, 3]
        header = result.to_markdown().splitlines()[0]
        assert "n_tasks" in header and "ratio" in header
        assert "acs improvement %" in header


class TestFigure6b:
    @pytest.fixture(scope="class")
    def result(self):
        return ScenarioEngine().run(ScenarioSpec.from_dict(_figure6b_document(["cnc", "gap"])))

    def test_both_applications_present(self, result):
        assert {p["coords"]["taskset.source"] for p in result.points} == {"cnc", "gap"}
        assert len(result.points) == 4

    def test_no_deadline_misses(self, result):
        assert all(p["deadline_misses"] == 0 for p in result.points)

    def test_improvement_positive_at_low_ratio(self, result):
        assert result.point(source="cnc", ratio=0.1)["methods"]["acs"]["mean_improvement_percent"] > 5.0
        assert result.point(source="gap", ratio=0.1)["methods"]["acs"]["mean_improvement_percent"] > 0.0

    def test_series_and_markdown(self, result):
        series = [p["coords"]["taskset.ratio"] for p in result.points
                  if p["coords"]["taskset.source"] == "cnc"]
        assert series == [0.1, 0.9]
        table = result.to_markdown()
        assert "| cnc" in table and "| gap" in table

    def test_unknown_application_rejected(self):
        spec = ScenarioSpec.from_dict(_figure6b_document(["cnc", "flight-sim"]))
        with pytest.raises(ScenarioError, match="taskset.source"):
            ScenarioEngine().compile(spec)

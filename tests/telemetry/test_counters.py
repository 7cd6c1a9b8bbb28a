"""Counter accuracy against known store/memo behaviour.

A cold scenario run computes every unit (store misses == computed units);
the warm rerun replays everything (store hits == units, ``computed=0``);
a ``--force``-style rerun recomputes the units but answers every NLP solve
from the warm solve-memo (memo hits, zero memo computes).  The NLP
evaluation counters match the objective/jacobian calls a plan makes, on
every planning path, and every solve reports its outcome.
"""

import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.core.task import Task
from repro.core.taskset import TaskSet
from repro.experiments.harness import ComparisonConfig, compare_schedulers, make_schedulers
from repro.offline.batched_solver import SolveMemo
from repro.offline.nlp import ReducedNLP
from repro.power.presets import cmos_processor, ideal_processor
from repro.scenarios import ResultStore, ScenarioEngine, ScenarioSpec
from repro.telemetry import Telemetry, using

#: Two work units, seconds end to end (mirrors the CLI test sweep).
SPEC = {
    "kind": "comparison",
    "name": "counter-sweep",
    "taskset": {"source": "random", "n_tasks": 2, "periods": [10.0, 20.0]},
    "simulation": {"hyperperiods": 2, "seed": 5, "repetitions": 2},
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One cold, one warm, one forced run over the same store, each with a
    fresh collector so every snapshot describes exactly one run."""
    store_root = tmp_path_factory.mktemp("store")
    spec = ScenarioSpec.from_dict(SPEC)
    engine = ScenarioEngine(ResultStore(store_root))
    out = {}
    for label, force in (("cold", False), ("warm", False), ("forced", True)):
        telemetry = Telemetry()
        with using(telemetry):
            result = engine.run(spec, force=force)
        out[label] = (result, telemetry.counters)
    return out


class TestColdRun:
    def test_every_unit_misses_then_computes(self, runs):
        result, counters = runs["cold"]
        n_units = result.computed
        assert n_units > 0 and result.skipped == 0
        assert counters["result_store.miss"] == n_units
        assert counters["result_store.computed"] == n_units
        assert counters["scenario.units_computed"] == n_units
        assert counters["scenario.units_replayed"] == 0

    def test_solves_populate_the_memo(self, runs):
        _, counters = runs["cold"]
        assert counters["solve_memo.computed"] > 0
        assert counters["solve_memo_store.computed"] == counters["solve_memo.computed"]


class TestWarmRun:
    def test_replays_everything_from_the_store(self, runs):
        result, counters = runs["warm"]
        n_units = runs["cold"][0].computed
        assert result.computed == 0 and result.skipped == n_units
        assert counters["result_store.hit"] == n_units
        assert counters["scenario.units_replayed"] == n_units
        assert counters["scenario.units_computed"] == 0
        assert "result_store.computed" not in counters
        assert "result_store.miss" not in counters

    def test_replay_never_touches_the_solver(self, runs):
        _, counters = runs["warm"]
        assert not any(name.startswith("solve_memo") for name in counters)
        assert not any(name.startswith("nlp.") for name in counters)


class TestForcedRun:
    def test_recomputes_units_but_answers_solves_from_the_memo(self, runs):
        result, counters = runs["forced"]
        n_units = runs["cold"][0].computed
        assert result.computed == n_units
        assert counters["scenario.units_computed"] == n_units
        assert counters["solve_memo.hit"] > 0
        assert "solve_memo.computed" not in counters
        assert "solve_memo.miss" not in counters
        # Memoized solves mean the NLP machinery never runs at all.
        assert "nlp.objective_evaluations" not in counters

    def test_bitwise_equal_results_across_all_three_runs(self, runs):
        cold, warm, forced = (runs[k][0] for k in ("cold", "warm", "forced"))
        assert cold.points == warm.points == forced.points


class TestNLPEvaluationCounters:
    TASKSET = TaskSet([
        Task("a", period=10, wcec=3000, acec=1500, bcec=600),
        Task("b", period=20, wcec=8000, acec=4400, bcec=800),
    ], name="counted")

    @pytest.mark.parametrize("law,methods,batched_planning", [
        ("linear", ("wcs",), True),
        ("linear", ("wcs", "acs"), True),
        ("linear", ("wcs", "acs"), False),
        ("cmos", ("wcs", "acs"), True),
    ], ids=["wcs", "wcs-acs", "wcs-acs-sequential", "wcs-acs-cmos"])
    def test_counts_equal_observed_calls(self, monkeypatch, law, methods, batched_planning):
        observed = {"objective": 0, "jacobian": 0}
        for name in observed:
            def counting(self, x, _original=getattr(ReducedNLP, name), _name=name):
                observed[_name] += 1
                return _original(self, x)

            monkeypatch.setattr(ReducedNLP, name, counting)
        processor = (ideal_processor if law == "linear" else cmos_processor)(fmax=1000.0)
        config = ComparisonConfig(n_hyperperiods=2, seed=3, batched_planning=batched_planning)
        with using(Telemetry()) as telemetry:
            compare_schedulers(self.TASKSET, processor, make_schedulers(methods, processor),
                               config, solve_memo=SolveMemo())
        counters = telemetry.counters
        assert observed["objective"] > 0
        assert counters["nlp.objective_evaluations"] == observed["objective"]
        assert counters.get("nlp.jacobian_evaluations", 0) == observed["jacobian"]
        if law == "linear":
            assert observed["jacobian"] > 0


class TestSolveOutcomeCounters:
    """Every solve counts its status and fallback and observes its iterations."""

    EXPANSION = expand_fully_preemptive(TestNLPEvaluationCounters.TASKSET)
    PROCESSOR = ideal_processor(fmax=1000.0)

    def test_status_and_iterations_of_a_converged_solve(self):
        with using(Telemetry()) as telemetry:
            schedule = ReducedNLP(self.EXPANSION, self.PROCESSOR, workload_mode="wcec").solve()
        status = schedule.metadata["solver_status"]
        assert telemetry.counters[f"solve.status.{status}"] == 1
        assert telemetry.observations["solve.iterations"] == [
            schedule.metadata["solver_iterations"]]
        assert "solve.fallback_worst_case" not in telemetry.counters

    def test_forced_worst_case_fallback_is_counted(self, monkeypatch):
        monkeypatch.setattr(ReducedNLP, "_repair", lambda self, end_times, budgets: None)
        with using(Telemetry()) as telemetry:
            schedule = ReducedNLP(self.EXPANSION, self.PROCESSOR).solve()
        assert schedule.metadata["fallback"] is True
        assert telemetry.counters["solve.fallback_worst_case"] == 1
        assert sum(value for name, value in telemetry.counters.items()
                   if name.startswith("solve.status.")) == 1

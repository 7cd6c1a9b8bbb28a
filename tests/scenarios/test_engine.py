"""Scenario engine: compilation, the CLI front-ends' documents, and equivalences."""

import sys
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.experiments.motivation import run_motivation
from repro.scenarios import ScenarioEngine, ScenarioSpec, load_scenario

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestCompile:
    def test_points_and_units_follow_the_matrix(self):
        spec = ScenarioSpec.from_dict({
            "kind": "comparison",
            "name": "grid",
            "simulation": {"repetitions": 3},
            "matrix": {"taskset.n_tasks": [2, 4], "taskset.ratio": [0.1, 0.5, 0.9]},
        })
        compiled = ScenarioEngine().compile(spec)
        assert len(compiled.points) == 6
        assert all(len(point.unit_keys) == 3 for point in compiled.points)
        assert len(compiled.units) == 18  # all units distinct (coords pin the seeds)
        assert compiled.points[0].coords == {"taskset.n_tasks": 2, "taskset.ratio": 0.1}

    def test_multicore_grid_is_native(self):
        spec = ScenarioSpec.from_dict({
            "kind": "multicore",
            "name": "grid",
            "taskset": {"source": "cnc"},
            "offline": {"methods": ["acs"], "baseline": "acs"},
            "multicore": {"cores": [1, 2, 4], "partitioners": ["ffd", "wfd"]},
        })
        compiled = ScenarioEngine().compile(spec)
        assert len(compiled.points) == 6
        assert len(compiled.units) == 6


@pytest.mark.skipif(sys.version_info < (3, 11), reason="TOML scenario files need tomllib")
class TestTraceAndArrivalsSignatures:
    """Trace/arrivals are *conditional* signature keys: every pre-existing
    store hash must be preserved, while traced/jittered units key apart."""

    def _first_unit(self, document):
        spec = ScenarioSpec.from_dict(document)
        compiled = ScenarioEngine().compile(spec)
        key = compiled.points[0].unit_keys[0]
        return key, compiled.units[key]

    def test_defaults_add_no_new_signature_keys(self):
        from repro.scenarios.engine import _comparison_signature

        document = {"kind": "comparison", "name": "sig",
                    "simulation": {"hyperperiods": 2, "repetitions": 1}}
        _, job = self._first_unit(document)
        signature = _comparison_signature(job)
        assert "trace" not in signature
        assert "arrivals" not in signature

    def test_trace_and_arrivals_key_apart_from_the_default(self):
        base = {"kind": "comparison", "name": "sig",
                "simulation": {"hyperperiods": 2, "repetitions": 1}}
        default_key, _ = self._first_unit(base)
        traced_key, traced_job = self._first_unit(
            {**base, "simulation": {"hyperperiods": 2, "repetitions": 1, "trace": True}})
        jittered_key, jittered_job = self._first_unit(
            {**base, "arrivals": {"model": "sporadic", "max_jitter": 1.5}})
        assert len({default_key, traced_key, jittered_key}) == 3
        assert traced_job.config.trace is True
        assert type(jittered_job.config.arrivals).__name__ == "SporadicArrivals"

    def test_explicit_periodic_arrivals_hit_the_default_key(self):
        """[arrivals] model = "periodic" is spelled-out default — same hash."""
        base = {"kind": "comparison", "name": "sig",
                "simulation": {"hyperperiods": 2, "repetitions": 1}}
        default_key, default_job = self._first_unit(base)
        periodic_key, periodic_job = self._first_unit(
            {**base, "arrivals": {"model": "periodic"}})
        assert periodic_key == default_key
        assert periodic_job.config.arrivals is None is default_job.config.arrivals

    def test_sporadic_scenario_units_are_traced_and_jittered(self):
        spec = load_scenario(REPO_ROOT / "examples" / "scenarios" / "sporadic.toml")
        compiled = ScenarioEngine().compile(spec)
        from repro.scenarios.engine import _comparison_signature

        for job in compiled.units.values():
            signature = _comparison_signature(job)
            assert signature["trace"] is True
            assert signature["arrivals"] == {
                "max_jitter": 1.5, "name": "sporadic", "type": "SporadicArrivals"}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="TOML scenario files need tomllib")
class TestCliDocumentsMatchCommittedSpecs:
    """Each experiment subcommand's scenario document compiles to exactly the
    work units of the committed TOML under the matching profile, so the CLI
    and ``repro run examples/scenarios/<name>.toml`` can never drift apart."""

    @staticmethod
    def cli_units(argv):
        args = build_parser().parse_args(argv)
        spec = ScenarioSpec.from_dict(args.document(args))
        return list(ScenarioEngine().compile(spec).units)

    @staticmethod
    def toml_units(name, profile):
        spec = load_scenario(REPO_ROOT / "examples" / "scenarios" / f"{name}.toml",
                             profile=profile)
        return list(ScenarioEngine().compile(spec).units)

    @pytest.mark.parametrize("argv,name,profile", [
        (["figure6a"], "figure6a", None),
        (["figure6a", "--quick"], "figure6a", "smoke"),
        (["figure6a", "--full"], "figure6a", "full"),
        (["figure6b"], "figure6b", None),
        (["figure6b", "--quick"], "figure6b", "smoke"),
        (["figure6b", "--full"], "figure6b", "full"),
        (["scalability"], "scalability", None),
        (["scalability", "--quick"], "scalability", "smoke"),
    ])
    def test_subcommand_compiles_to_the_committed_units(self, argv, name, profile):
        units = self.cli_units(argv)
        assert units  # a vacuous match would hide a broken document
        assert units == self.toml_units(name, profile)


class TestSweepDocument:
    """`repro sweep` keeps its single-point, per-taskset seed coordinates."""

    def test_repetitions_are_the_taskset_coordinates(self):
        from repro.experiments.harness import ComparisonConfig, random_comparison_job
        from repro.power.presets import ideal_processor
        from repro.runtime.policies import get_policy
        from repro.scenarios.engine import _comparison_signature
        from repro.workloads.random_tasksets import RandomTaskSetConfig

        args = build_parser().parse_args(["sweep", "--quick", "--policy", "lookahead"])
        compiled = ScenarioEngine().compile(ScenarioSpec.from_dict(args.document(args)))
        taskset_config = RandomTaskSetConfig(n_tasks=3, target_utilization=0.7,
                                             bcec_wcec_ratio=0.5,
                                             periods=(10.0, 20.0, 40.0))
        config = ComparisonConfig(n_hyperperiods=5, seed=2005,
                                  policy=get_policy("lookahead"))
        expected = [
            _comparison_signature(random_comparison_job(
                ideal_processor(), taskset_config, config, index, taskset_index=index))
            for index in range(2)
        ]
        assert [_comparison_signature(job) for job in compiled.units.values()] == expected


class TestMotivationEquivalence:
    def test_motivation_scenario_matches_run_motivation(self):
        spec = ScenarioSpec.from_dict({
            "kind": "motivation",
            "name": "motivation",
            "power": {"model": "ideal", "vmax": 5.0, "vmin": 0.5, "fmax": 1000.0},
        })
        (point,) = ScenarioEngine().run(spec).points
        reference = run_motivation()
        assert point["wcs_end_times"] == reference.wcs_end_times
        assert point["acs_end_times"] == reference.acs_end_times
        assert point["wcs_worst_case_energy"] == reference.wcs_worst_case_energy
        assert point["acs_average_case_energy"] == reference.acs_average_case_energy
        assert point["improvement_average_case_percent"] == reference.improvement_average_case_percent


class TestEngineChoiceEquivalence:
    """simulation.engine is a wall-clock knob: results and store keys agree."""

    DOCUMENT = {
        "kind": "comparison",
        "name": "engine-choice",
        "taskset": {"source": "random", "n_tasks": 3, "periods": [10.0, 20.0, 40.0]},
        "simulation": {"hyperperiods": 3, "seed": 7, "repetitions": 3},
        "matrix": {"taskset.ratio": [0.1, 0.9]},
    }

    def spec(self, engine):
        simulation = {**self.DOCUMENT["simulation"], "engine": engine}
        return ScenarioSpec.from_dict({**self.DOCUMENT, "simulation": simulation})

    def test_batched_run_matches_compiled_run_bitwise(self):
        compiled = ScenarioEngine().run(self.spec("compiled"))
        batched = ScenarioEngine().run(self.spec("batched"))
        assert batched.points == compiled.points

    def test_batched_run_store_hits_a_compiled_store(self, tmp_path):
        from repro.scenarios import ResultStore

        store = ResultStore(tmp_path / "store")
        cold = ScenarioEngine(store).run(self.spec("compiled"))
        assert cold.computed > 0 and cold.skipped == 0
        warm = ScenarioEngine(store).run(self.spec("batched"))
        # The engine deliberately stays out of the signature; a batched run
        # replays every compiled record instead of recomputing.
        assert warm.computed == 0
        assert warm.skipped == cold.computed
        assert warm.points == cold.points


class TestAutoEngineSelection:
    """engine = "auto" (the default) picks the runtime from the sweep size."""

    def compiled_scenario(self, repetitions, engine=None):
        simulation = {"hyperperiods": 2, "seed": 7, "repetitions": repetitions}
        if engine is not None:
            simulation["engine"] = engine
        spec = ScenarioSpec.from_dict({
            "kind": "comparison",
            "name": "auto-choice",
            "taskset": {"source": "random", "n_tasks": 3, "periods": [10.0, 20.0, 40.0]},
            "simulation": simulation,
            "matrix": {"taskset.ratio": [0.1, 0.9]},
        })
        return ScenarioEngine().compile(spec)

    def test_small_sweep_stays_on_the_compiled_loop(self):
        # 2 matrix points x 2 repetitions x 2 methods = 8 units < threshold.
        compiled = self.compiled_scenario(repetitions=2)
        assert all(not job.config.batched for job in compiled.units.values())

    def test_large_sweep_flips_to_the_batched_engine(self):
        from repro.scenarios.engine import AUTO_BATCH_THRESHOLD

        # 2 matrix points x 50 repetitions x 2 methods = 200 units.
        compiled = self.compiled_scenario(repetitions=50)
        total = sum(len(job.schedulers) for job in compiled.units.values())
        assert total >= AUTO_BATCH_THRESHOLD
        assert all(job.config.batched for job in compiled.units.values())

    def test_explicit_engine_choice_overrides_auto(self):
        compiled = self.compiled_scenario(repetitions=50, engine="compiled")
        assert all(not job.config.batched for job in compiled.units.values())
        batched = self.compiled_scenario(repetitions=2, engine="batched")
        assert all(job.config.batched for job in batched.units.values())

    def test_auto_flip_does_not_change_unit_keys(self):
        auto = self.compiled_scenario(repetitions=50)
        explicit = self.compiled_scenario(repetitions=50, engine="compiled")
        assert set(auto.units) == set(explicit.units)


class TestParallelDeterminism:
    def test_worker_count_does_not_change_aggregates(self):
        spec = ScenarioSpec.from_dict({
            "kind": "comparison",
            "name": "par",
            "taskset": {"source": "random", "n_tasks": 3, "periods": [10.0, 20.0, 40.0]},
            "simulation": {"hyperperiods": 2, "seed": 11, "repetitions": 2},
            "matrix": {"taskset.ratio": [0.2, 0.8]},
        })
        serial = ScenarioEngine().run(spec, n_jobs=1)
        parallel = ScenarioEngine().run(spec, n_jobs=2)
        assert serial.points == parallel.points

    def test_markdown_report_is_deterministic(self):
        spec = ScenarioSpec.from_dict({
            "kind": "comparison",
            "name": "md",
            "taskset": {"source": "random", "n_tasks": 2, "periods": [10.0, 20.0]},
            "simulation": {"hyperperiods": 2, "seed": 3},
            "matrix": {"taskset.ratio": [0.5]},
        })
        first = ScenarioEngine().run(spec).to_markdown()
        second = ScenarioEngine().run(spec).to_markdown()
        assert first == second
        assert "| ratio" in first and "misses" in first


class TestUnitLevelApi:
    """The unit-level view (`iter_units`/`run_unit`/`aggregate`) the sweep
    server schedules from must agree exactly with the batch `run` path."""

    SPEC = {
        "kind": "motivation",
        "name": "unit-api",
        "power": {"model": "ideal", "vmax": 5.0, "vmin": 0.5, "fmax": 1000.0},
    }

    def test_iter_units_yields_keyed_labelled_units(self):
        engine = ScenarioEngine()
        compiled = engine.compile(ScenarioSpec.from_dict(self.SPEC))
        (item,) = list(engine.iter_units(compiled))
        key, unit, label = item
        assert key in compiled.units and compiled.units[key] is unit
        assert label == "unit-api"

    def test_run_unit_plus_aggregate_matches_engine_run(self):
        from repro.scenarios import run_unit

        engine = ScenarioEngine()
        spec = ScenarioSpec.from_dict(self.SPEC)
        compiled = engine.compile(spec)
        payloads = {key: run_unit(unit) for key, unit, _ in engine.iter_units(compiled)}
        assert engine.aggregate(compiled, payloads) == engine.run(spec).points

    def test_run_unit_agrees_for_comparison_jobs(self):
        from repro.scenarios import run_unit

        engine = ScenarioEngine()
        spec = ScenarioSpec.from_dict({
            "kind": "comparison",
            "name": "unit-api-cmp",
            "taskset": {"source": "random", "n_tasks": 2, "periods": [10.0, 20.0]},
            "simulation": {"hyperperiods": 2, "seed": 3},
            "matrix": {"taskset.ratio": [0.5]},
        })
        compiled = engine.compile(spec)
        payloads = {key: run_unit(unit) for key, unit, _ in engine.iter_units(compiled)}
        assert engine.aggregate(compiled, payloads) == engine.run(spec).points

    def test_run_unit_rejects_unknown_unit_types(self):
        from repro.core.errors import ExperimentError
        from repro.scenarios import run_unit

        with pytest.raises(ExperimentError, match="unknown work-unit type"):
            run_unit(object())

"""Golden event-trace regression tests.

Each fixture under ``tests/fixtures/traces/`` pins, per method, the planned
static schedule (``end_times`` / ``wc_budgets`` and the planner's
``objective_value``) and the *complete* typed event stream of one
deterministic simulation of that schedule — every release, resume,
frequency change, segment, preemption and deadline miss with full float
precision.

The two halves are checked separately, because they have different
contracts:

* **Simulation is bitwise.**  :func:`test_golden_trace` rebuilds the
  committed schedule with ``StaticSchedule.from_vectors`` and replays it
  through the simulator exactly as the unit's comparison does.  Any change
  to dispatch order, RNG consumption, slack arithmetic or event emission
  shows up as a trace diff here, whatever the optimiser build.
* **Planning is bounded.**  :func:`test_golden_plan` re-plans each golden
  unit on the installed SciPy / NumPy build.  The plan must pass
  ``StaticSchedule.validate`` and its objective must lie within
  :data:`PLAN_RTOL` of the committed one — repeatable within a build,
  bounded across builds.  It also checks that the replay path of the
  golden reproduces the engine's own trace for the fresh plan.

Pinned runs:

* ``figure6a_smoke_unit0``  — the first work unit of the committed
  ``examples/scenarios/figure6a.toml`` at its smoke profile (trace forced on;
  tracing is opt-in, so forcing it cannot change the simulated numbers).
* ``demo_greedy``           — the CLI demo application (``repro trace`` with
  its defaults).  The committed motivation scenario itself is the analytic
  end-times table (kind ``motivation``) and never runs the simulator, so the
  demo frame stands in for it as the hand-sized golden run.
* ``sporadic_unit0``        — the first unit of the committed
  ``examples/scenarios/sporadic.toml`` exactly as ``repro run`` executes it.

Regenerate intentionally with::

    REPRO_REGEN_FIXTURES=1 PYTHONPATH=src python -m pytest tests/integration/test_golden_traces.py

after reviewing the diff — a regeneration is a semantic change to the
planner or the simulator and should be called out in the commit message.
"""

import copy
import json
import os

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.cli import main as cli_main
from repro.experiments.harness import run_comparisons
from repro.offline.nlp import ReducedNLP
from repro.offline.schedule import StaticSchedule
from repro.power.presets import ideal_processor
from repro.runtime.simulator import DVSSimulator, SimulationConfig
from repro.runtime.trace import EventTrace
from repro.scenarios import MemoryStore, ScenarioEngine, ScenarioSpec, load_scenario
from repro.workloads.distributions import NormalWorkload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
FIXTURES_DIR = os.path.join(REPO_ROOT, "tests", "fixtures", "traces")
SCENARIOS_DIR = os.path.join(REPO_ROOT, "examples", "scenarios")
REGEN = os.environ.get("REPRO_REGEN_FIXTURES") == "1"

#: How far a re-planned objective may sit from the committed one.  SLSQP on
#: the non-convex ACS problem can settle in a neighbouring local optimum on
#: another SciPy / BLAS build; a planner regression moves the objective by
#: far more than this.
PLAN_RTOL = 1e-2


# --------------------------------------------------------------------- #
# Golden units: how each one plans, and how it simulates a given plan
# --------------------------------------------------------------------- #
def _traced_spec(path, profile=None):
    """Load a committed scenario with the event stream forced on."""
    spec = load_scenario(path, profile=profile)
    data = spec.to_dict()
    data["simulation"]["trace"] = True
    return ScenarioSpec.from_dict(data)


class _ScenarioUnit:
    """The first point's ``unit_index``-th unit of a scenario, as the engine runs it."""

    def __init__(self, spec, unit_index=0):
        compiled = ScenarioEngine(MemoryStore()).compile(spec)
        self.job = compiled.units[compiled.points[0].unit_keys[unit_index]]
        self.processor = self.job.processor
        self.expansion = expand_fully_preemptive(self.job.resolve_taskset())

    def plan_and_simulate(self):
        """``{method: (schedule, events)}`` from the engine's own comparison path."""
        result = run_comparisons([self.job])[0]
        return {method: (outcome.schedule, outcome.simulation.trace.to_dicts())
                for method, outcome in result.outcomes.items()}

    def simulate(self, method, schedule):
        """Replay ``schedule`` the way the unit's comparison simulates it."""
        cfg = self.job.config
        simulator = DVSSimulator(self.processor, policy=copy.deepcopy(cfg.policy),
                                 config=cfg.simulation_config())
        result = simulator.run(schedule, cfg.workload, np.random.default_rng(cfg.seed))
        return result.trace.to_dicts()


class _DemoUnit:
    """The `repro trace` default run, built through the library API."""

    def __init__(self):
        from repro.cli import _demo_taskset

        self.taskset = _demo_taskset(0.5)
        self.processor = ideal_processor(fmax=1000.0)
        self.expansion = expand_fully_preemptive(self.taskset)

    def plan_and_simulate(self):
        from repro.experiments.harness import make_schedulers

        schedule = make_schedulers(["acs"], self.processor)["acs"].schedule(self.taskset)
        return {"acs": (schedule, self.simulate("acs", schedule))}

    def simulate(self, method, schedule):
        simulator = DVSSimulator(
            self.processor, policy="greedy",
            config=SimulationConfig(n_hyperperiods=2, trace=True))
        result = simulator.run(schedule, NormalWorkload(), np.random.default_rng(2005))
        return result.trace.to_dicts()


def unit_figure6a_smoke_unit0():
    return _ScenarioUnit(_traced_spec(os.path.join(SCENARIOS_DIR, "figure6a.toml"),
                                      profile="smoke"))


def unit_sporadic_unit0():
    # sporadic.toml already declares trace = true; no forcing needed.
    spec = load_scenario(os.path.join(SCENARIOS_DIR, "sporadic.toml"))
    assert spec.simulation.trace, "sporadic.toml must commit to trace = true"
    return _ScenarioUnit(spec)


UNITS = {
    "figure6a_smoke_unit0": unit_figure6a_smoke_unit0,
    "demo_greedy": _DemoUnit,
    "sporadic_unit0": unit_sporadic_unit0,
}


# --------------------------------------------------------------------- #
# Fixture I/O (one event per line, so regeneration diffs stay readable)
# --------------------------------------------------------------------- #
def _fixture_path(name):
    return os.path.join(FIXTURES_DIR, f"{name}.json")


def _write_fixture(name, planned):
    os.makedirs(FIXTURES_DIR, exist_ok=True)
    chunks = []
    for method in sorted(planned):
        schedule, events = planned[method]
        rows = ",\n".join("     " + json.dumps(row, sort_keys=True) for row in events)
        chunks.append(
            f"  {json.dumps(method)}: {{\n"
            f"    \"end_times\": {json.dumps([float(v) for v in schedule.end_times()])},\n"
            f"    \"wc_budgets\": {json.dumps([float(v) for v in schedule.wc_budgets()])},\n"
            f"    \"objective_value\": {json.dumps(schedule.objective_value)},\n"
            f"    \"events\": [\n{rows}\n    ]\n  }}")
    with open(_fixture_path(name), "w") as handle:
        handle.write("{\n" + ",\n".join(chunks) + "\n}\n")


#: Fixtures already rewritten by this process (a regeneration plans each once).
_REGENERATED = set()


def _read_fixture(name):
    if REGEN and name not in _REGENERATED:
        _write_fixture(name, UNITS[name]().plan_and_simulate())
        _REGENERATED.add(name)
    assert os.path.exists(_fixture_path(name)), (
        f"missing fixture {name}.json — generate it with REPRO_REGEN_FIXTURES=1")
    with open(_fixture_path(name)) as handle:
        return json.load(handle)


def _committed_schedule(unit, method, golden):
    return StaticSchedule.from_vectors(unit.expansion, golden["end_times"],
                                       golden["wc_budgets"], method=method)


def _assert_same_events(label, actual, expected):
    assert len(actual) == len(expected), (
        f"{label}: {len(actual)} events, fixture has {len(expected)}")
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, (
            f"{label} diverges at event {index}:\n  got  {got}\n  want {want}")


# --------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(UNITS))
def test_golden_trace(name):
    """The committed schedules replay to the committed event streams, bitwise."""
    golden = _read_fixture(name)
    unit = UNITS[name]()
    for method in sorted(golden):
        expected = golden[method]["events"]
        schedule = _committed_schedule(unit, method, golden[method])
        _assert_same_events(f"{name}/{method}", unit.simulate(method, schedule), expected)
        # The committed rows must also rebuild into a well-formed trace.
        rebuilt = EventTrace.from_dicts(expected)
        assert rebuilt.to_dicts() == expected


def test_golden_trace_never_calls_the_solver(monkeypatch):
    """The replay half is independent of the optimiser: it never solves."""
    def refuse(self, x0=None):
        raise AssertionError("the golden replay called the NLP solver")

    monkeypatch.setattr(ReducedNLP, "solve", refuse)
    for name in sorted(UNITS):
        test_golden_trace(name)


@pytest.mark.parametrize("name", sorted(UNITS))
def test_golden_plan(name):
    """Re-planning a golden unit on this build gives a valid, near-equal plan."""
    golden = _read_fixture(name)
    unit = UNITS[name]()
    planned = unit.plan_and_simulate()
    assert sorted(planned) == sorted(golden)
    for method, (schedule, events) in sorted(planned.items()):
        schedule.validate(unit.processor)
        committed = golden[method]["objective_value"]
        assert schedule.objective_value == pytest.approx(committed, rel=PLAN_RTOL), (
            f"{name}/{method}: objective {schedule.objective_value} vs committed {committed}")
        # The golden's replay path is the engine's own simulation path.
        _assert_same_events(f"{name}/{method} (replay of the fresh plan)",
                            unit.simulate(method, schedule), events)


def test_fixture_directory_has_no_orphans():
    committed = {name[:-5] for name in os.listdir(FIXTURES_DIR)
                 if name.endswith(".json")}
    assert committed == set(UNITS), (
        "fixtures and golden units out of sync — delete stale files or add a unit")


def test_sporadic_scenario_runs_end_to_end_through_the_cli(tmp_path, capsys):
    """The acceptance path: `repro run examples/scenarios/sporadic.toml`."""
    spec_path = os.path.join(SCENARIOS_DIR, "sporadic.toml")
    exit_code = cli_main(["run", spec_path, "--store", str(tmp_path / "store"),
                          "--output", str(tmp_path / "out")])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "sporadic" in output
    assert "computed=2 skipped=0" in output
    # Warm rerun: everything store-hits, nothing recomputed.
    exit_code = cli_main(["run", spec_path, "--store", str(tmp_path / "store")])
    assert exit_code == 0
    assert "computed=0 skipped=2" in capsys.readouterr().out
    result = json.loads((tmp_path / "out" / "sporadic.json").read_text())
    assert result["scenario"]["name"] == "sporadic"
    assert result["points"]

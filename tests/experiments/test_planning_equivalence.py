"""Harness-level equivalence: batched planning never changes any result.

``ComparisonConfig(batched_planning=True)`` (the default) routes a
comparison's offline solves through the batched planner and the solve memo;
``False`` pins the historical per-scheduler sequential path.  Both must
produce bitwise-identical :class:`ComparisonResult`s — schedules *and* the
simulations run on top of them — across the full online matrix (all four
DVS policies x all four workload models), with the scenario-weighted
stochastic scheduler in the mix, and under a discrete-voltage simulation
config (planned through ``plan_expansions`` and simulated directly, since
``ComparisonConfig`` has no voltage-level setting).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.experiments.harness import (
    ComparisonConfig,
    ComparisonResult,
    MethodOutcome,
    compare_schedulers,
    make_schedulers,
)
from repro.offline import SolveMemo, plan_expansions
from repro.offline.stochastic import StochasticACSScheduler
from repro.power.voltage import VoltageLevels
from repro.runtime.policies import available_policies, get_policy
from repro.runtime.simulator import DVSSimulator, SimulationConfig
from repro.workloads.distributions import (
    BimodalWorkload,
    FixedWorkload,
    NormalWorkload,
    UniformWorkload,
)

WORKLOADS = [
    NormalWorkload(),
    UniformWorkload(),
    FixedWorkload(mode="acec"),
    BimodalWorkload(burst_probability=0.3),
]


def fingerprint(result):
    """Every float of every outcome: schedule vectors plus simulation."""
    return {
        name: (
            outcome.schedule.method,
            tuple(outcome.schedule.end_times()),
            tuple(outcome.schedule.wc_budgets()),
            outcome.schedule.objective_value,
            outcome.simulation.total_energy,
            tuple(outcome.simulation.energy_per_hyperperiod),
            tuple(sorted(outcome.simulation.energy_by_task.items())),
            len(outcome.simulation.deadline_misses),
        )
        for name, outcome in result.outcomes.items()
    }


def run_both_plans(taskset, processor, schedulers, **config_kwargs):
    results = []
    for batched_planning in (True, False):
        config = ComparisonConfig(n_hyperperiods=2, seed=424242,
                                  batched_planning=batched_planning,
                                  **config_kwargs)
        results.append(compare_schedulers(taskset, processor, schedulers, config))
    return results


@pytest.mark.parametrize("policy", available_policies())
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_policy_workload_matrix(processor, two_task_set, policy, workload):
    batched, sequential = run_both_plans(
        two_task_set, processor, make_schedulers(("wcs", "acs"), processor),
        policy=get_policy(policy), workload=workload)
    assert fingerprint(batched) == fingerprint(sequential)


def test_scenario_weighted_scheduler(processor, three_task_set):
    schedulers = dict(make_schedulers(("wcs", "acs"), processor))
    schedulers["acs_stochastic"] = StochasticACSScheduler(processor, n_scenarios=4)
    batched, sequential = run_both_plans(three_task_set, processor, schedulers)
    assert fingerprint(batched) == fingerprint(sequential)


def test_discrete_voltage_simulation(processor, two_task_set):
    """Both planning paths' schedules, simulated on discrete voltage levels."""
    simulation = SimulationConfig(
        n_hyperperiods=2, seed=424242,
        voltage_levels=VoltageLevels([0.5, 1.0, 2.0, 3.0, 4.0, 5.0]))
    expansion = expand_fully_preemptive(two_task_set)
    methods = make_schedulers(("wcs", "acs"), processor)
    (batched,) = plan_expansions([(expansion, methods)], memo=SolveMemo())
    sequential = {name: scheduler.schedule_expansion(expansion)
                  for name, scheduler in methods.items()}

    def simulated(schedules):
        outcomes = {
            name: MethodOutcome(name, schedule, DVSSimulator(processor, config=simulation).run(
                schedule, rng=np.random.default_rng(simulation.seed)))
            for name, schedule in schedules.items()
        }
        return ComparisonResult(two_task_set.name, outcomes, baseline="wcs")

    assert fingerprint(simulated(batched)) == fingerprint(simulated(sequential))


def test_batched_planning_is_the_default():
    assert ComparisonConfig().batched_planning is True
    assert replace(ComparisonConfig(), batched_planning=False).batched_planning is False

"""Benchmark: Figure 6(a) — ACS vs WCS on random task sets.

The paper sweeps 2–10 tasks and BCEC/WCEC ∈ {0.1, 0.5, 0.9} with 100 task sets
× 1000 hyperperiods per point.  The benchmark uses a scaled-down sweep (the
full setting is available through ``repro-experiments figure6a --full``), run
as a scenario document through the scenario engine, and checks the figure's
two trends:

* the improvement of ACS over WCS grows with the number of tasks, and
* it shrinks as the BCEC/WCEC ratio approaches 1.

The end-to-end regeneration above is dominated by the NLP solves, so engine
speedups barely move it.  The ``*_sim_*`` benchmarks therefore time the
*simulation stage in isolation* — the schedules are solved once, untimed, and
the timed region replays a widened sweep's simulations (50 task sets per
point, 25 hyperperiods each -> 900 lock-step units) through either the
compiled event loop or the batched structure-of-arrays engine (which must
agree bitwise).  Batch width matters: per step the batched engine pays a
fixed ~190-numpy-call toll spread over however many units are still live, so
it only overtakes the compiled loop beyond roughly 200 concurrent units and
plateaus around 2x at 900+.  The width here sits on that plateau; sweeps
narrower than ~100 units should stay on the compiled engine.

The ``*_plan_*`` benchmarks isolate the other stage: the offline NLP solves.
``plan_sequential`` times the historical per-scheduler loop,
``plan_batched`` the cross-problem coordinator (every solve of the sweep
advancing in lock-step against stacked objective evaluations) with a fresh
memo per round, and ``plan_memo_warm`` the resume path — a pre-warmed solve
memo replays every schedule with **zero** optimizer calls, which is where
the real-world speedup lives (resumed, repeated and reseeded sweeps).  On a
single core the cold batched path is roughly cost-neutral — stacking the
objective evaluations cannot dodge SLSQP's own serial C iterations — so the
cold pair is tracked for parity, the warm number for the win.  All three
must agree bitwise with the sequential reference.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.experiments.harness import _prepare_units, make_schedulers
from repro.offline.batched_solver import SolveMemo, plan_expansions
from repro.runtime.batched import simulate_batch
from repro.runtime.compiled import run_compiled
from repro.scenarios import ScenarioEngine, ScenarioSpec


def figure6a_spec(repetitions: int, hyperperiods: int) -> ScenarioSpec:
    """The Figure-6a matrix at benchmark scale (divisor-friendly periods)."""
    return ScenarioSpec.from_dict({
        "kind": "comparison",
        "name": "figure6a-bench",
        "taskset": {"source": "random", "utilization": 0.7,
                    "periods": [10.0, 20.0, 40.0, 80.0]},
        # The stage benchmarks below pin the scalar loop themselves.
        "simulation": {"hyperperiods": hyperperiods, "seed": 2005,
                       "repetitions": repetitions, "engine": "compiled"},
        "matrix": {"taskset.n_tasks": [2, 4, 6], "taskset.ratio": [0.1, 0.5, 0.9]},
    })


#: Scaled-down sweep: divisor-friendly periods keep the NLP small.
BENCH_SPEC = figure6a_spec(repetitions=2, hyperperiods=10)

#: Simulation-stage sweep: same points as BENCH_SPEC but wide enough
#: (9 points x 50 task sets x 2 methods = 900 units) for lock-stepping to
#: amortise the batched engine's fixed per-step cost.
SIM_TASKSETS_PER_POINT = 50
SIM_HYPERPERIODS = 25


def _jobs(spec: ScenarioSpec):
    return list(ScenarioEngine().compile(spec).units.values())


@pytest.fixture(scope="module")
def sim_units():
    """Every (task set, method) simulation unit of the sweep, schedules pre-solved.

    All NLP work happens here, outside any timed region.  The units keep
    ``rng=None`` placeholders; each timed replay seeds fresh generators so
    every round simulates the identical workload realisations.
    """
    units = []
    for job in _jobs(figure6a_spec(SIM_TASKSETS_PER_POINT, SIM_HYPERPERIODS)):
        methods = make_schedulers(job.schedulers, job.processor)
        _, job_units = _prepare_units(job.resolve_taskset(), job.processor, methods,
                                      job.config)
        units.extend(job_units)
    return units


def _reseeded(units):
    return [replace(unit, rng=np.random.default_rng(unit.config.seed))
            for unit in units]


def _simulate_compiled(units):
    return [
        run_compiled(unit.schedule, unit.processor, unit.policy, unit.config,
                     unit.workload, unit.rng)
        for unit in _reseeded(units)
    ]


def _simulate_batched(units):
    return simulate_batch(_reseeded(units))


def test_figure6a_random_tasksets(benchmark, run_once):
    result = run_once(benchmark, ScenarioEngine().run, BENCH_SPEC)

    print()
    print("Figure 6(a): ACS vs WCS by task count and BCEC/WCEC ratio")
    print(result.to_markdown())

    def improvement(n_tasks, ratio):
        point = result.point(n_tasks=n_tasks, ratio=ratio)
        return point["methods"]["acs"]["mean_improvement_percent"]

    # No deadline may ever be missed.
    assert all(point["deadline_misses"] == 0 for point in result.points)

    # Trend 1: at high workload variation (ratio 0.1) the improvement is substantial.
    assert improvement(6, 0.1) > 15.0

    # Trend 2: for every task count, ratio 0.1 beats ratio 0.9 (small noise allowance).
    for n_tasks in (2, 4, 6):
        assert improvement(n_tasks, 0.1) >= improvement(n_tasks, 0.9) - 3.0

    # Trend 3: more tasks give ACS at least as much room at ratio 0.1 (loose check).
    assert improvement(6, 0.1) >= improvement(2, 0.1) - 5.0


def test_figure6a_sim_compiled(benchmark, sim_units):
    """Simulation stage only, compiled event loop (the pre-batching baseline)."""
    results = benchmark.pedantic(_simulate_compiled, args=(sim_units,),
                                 rounds=3, iterations=1)
    assert len(results) == len(sim_units)
    assert all(result.n_hyperperiods == SIM_HYPERPERIODS for result in results)


def test_figure6a_sim_batched(benchmark, sim_units):
    """Simulation stage only, batched SoA engine — must match compiled bitwise."""
    results = benchmark.pedantic(_simulate_batched, args=(sim_units,),
                                 rounds=3, iterations=1)
    compiled = _simulate_compiled(sim_units)
    for batched, reference in zip(results, compiled):
        assert batched.total_energy == reference.total_energy
        assert batched.energy_per_hyperperiod == reference.energy_per_hyperperiod
        assert batched.transition_energy == reference.transition_energy
        assert batched.energy_by_task == reference.energy_by_task
        assert batched.deadline_misses == reference.deadline_misses
        assert batched.jobs_completed == reference.jobs_completed


def _traced(units):
    return [replace(unit, config=replace(unit.config, trace=True))
            for unit in units]


def test_figure6a_sim_compiled_traced(benchmark, sim_units):
    """The same compiled replay with the typed event stream on.

    Paired with ``test_figure6a_sim_compiled`` this is the tracing-overhead
    guard: the trace-off number is the product path and must not regress when
    event emission evolves, while the on/off gap quantifies what ``trace=True``
    costs (event allocation is the dominant term).  The energies must be
    bitwise-unchanged — tracing is a pure observer.
    """
    traced_units = _traced(sim_units)
    results = benchmark.pedantic(_simulate_compiled, args=(traced_units,),
                                 rounds=3, iterations=1)
    compiled = _simulate_compiled(sim_units)
    for traced, reference in zip(results, compiled):
        assert traced.trace is not None and len(traced.trace) > 0
        assert reference.trace is None
        assert traced.total_energy == reference.total_energy
        assert traced.energy_by_task == reference.energy_by_task


@pytest.fixture(scope="module")
def plan_items():
    """Every (expansion, methods) planning group of the sweep, built untimed.

    18 jobs x 2 methods = 36 scheduler programs; the ACS half are NLP
    solves (two waves each: WCS seeding then the average-case refinement).
    """
    return [
        (expand_fully_preemptive(job.resolve_taskset()),
         make_schedulers(job.schedulers, job.processor))
        for job in _jobs(BENCH_SPEC)
    ]


def _plan_sequential(items):
    return [{name: scheduler.schedule_expansion(expansion)
             for name, scheduler in methods.items()}
            for expansion, methods in items]


def _plan_batched(items):
    # Fresh empty memo per call: every timed round re-solves the whole
    # sweep, so the number measures the coordinator, not the cache.
    return plan_expansions(items, memo=SolveMemo())


def _plan_memoized(items, memo):
    return plan_expansions(items, memo=memo)


def _assert_plans_identical(results, reference):
    assert len(results) == len(reference)
    for group, expected in zip(results, reference):
        assert group.keys() == expected.keys()
        for name in expected:
            ours, theirs = group[name], expected[name]
            assert ours.method == theirs.method
            assert tuple(ours.end_times()) == tuple(theirs.end_times())
            assert tuple(ours.wc_budgets()) == tuple(theirs.wc_budgets())
            assert ours.objective_value == theirs.objective_value


def test_figure6a_plan_sequential(benchmark, plan_items):
    """Offline planning stage only, per-scheduler sequential solves (baseline)."""
    results = benchmark.pedantic(_plan_sequential, args=(plan_items,),
                                 rounds=3, iterations=1)
    assert len(results) == len(plan_items)


def test_figure6a_plan_batched(benchmark, plan_items):
    """Offline planning through the batched coordinator, cold memo every round."""
    results = benchmark.pedantic(_plan_batched, args=(plan_items,),
                                 rounds=3, iterations=1)
    _assert_plans_identical(results, _plan_sequential(plan_items))


def test_figure6a_plan_memo_warm(benchmark, plan_items):
    """Replanning from a warm solve memo — the resume path, zero optimizer calls."""
    memo = SolveMemo()
    plan_expansions(plan_items, memo=memo)  # warm it, untimed
    computed_cold = memo.computed
    results = benchmark.pedantic(_plan_memoized, args=(plan_items, memo),
                                 rounds=3, iterations=1)
    assert memo.computed == computed_cold  # no timed round ran a solver
    _assert_plans_identical(results, _plan_sequential(plan_items))

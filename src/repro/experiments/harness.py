"""Experiment harness: schedule task sets with several methods and simulate them.

This is the glue the paper's evaluation needs: for a given task set it

1. expands the hyperperiod once,
2. runs every requested offline scheduler on the same expansion,
3. simulates every resulting static schedule with the same random workload
   realisations (common random numbers, so the comparison is paired), and
4. reports per-method runtime energy plus the percentage improvement of every
   method over a chosen baseline (WCS in the paper).

On top of the single-taskset :func:`compare_schedulers`, the harness provides
a **batched, multiprocess runner**: a sweep is described as a list of
picklable :class:`ComparisonJob` work units and executed by
:func:`run_comparisons`, serially or on a :class:`concurrent.futures`
process pool.  Every job carries its own explicitly derived RNG seeds (see
:mod:`repro.experiments.seeding`), so the results are bitwise-identical
regardless of worker count or completion order.
"""

from __future__ import annotations

import copy
import functools
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.preemption import expand_fully_preemptive
from ..core.errors import ExperimentError
from ..core.taskset import TaskSet
from ..offline.acs import ACSScheduler
from ..offline.base import VoltageScheduler
from ..offline.baselines import ConstantSpeedScheduler, MaxSpeedScheduler
from ..offline.batched_solver import SolveMemo, default_solve_memo, plan_expansions
from ..offline.schedule import StaticSchedule
from ..offline.wcs import WCSScheduler
from ..power.processor import ProcessorModel
from ..runtime.batched import BatchUnit, batch_fallback_reason, simulate_batch
from ..runtime.policies import DVSPolicy, GreedySlackPolicy
from ..runtime.results import SimulationResult, improvement_percent
from ..runtime.simulator import DVSSimulator, SimulationConfig
from ..workloads.arrivals import ArrivalModel
from ..workloads.distributions import NormalWorkload, WorkloadModel
from ..telemetry.core import current as _telemetry
from ..workloads.random_tasksets import RandomTaskSetConfig, generate_random_taskset
from .seeding import SIMULATION_STREAM, TASKSET_STREAM, derive_rng, derive_seed

__all__ = [
    "ComparisonConfig",
    "MethodOutcome",
    "ComparisonResult",
    "ComparisonJob",
    "aggregate_fallback_reasons",
    "compare_schedulers",
    "run_comparisons",
    "iter_comparisons",
    "random_comparison_job",
    "default_schedulers",
    "make_schedulers",
    "scheduler_names",
    "warn_if_excessive_fallback",
]


@dataclass(frozen=True)
class ComparisonConfig:
    """Settings shared by every method in one comparison.

    The ``seed`` is the *explicit* seed of this comparison's workload
    generator: every method replays exactly the same draws (paired
    comparison), and two runs with the same seed are bit-identical.  Sweeps
    must not draw these seeds from a shared generator — derive them from the
    work unit's coordinates with :meth:`with_derived_seed` so the value is
    independent of execution order (serial and parallel runs then agree).
    """

    n_hyperperiods: int = 50
    seed: Optional[int] = 12345
    baseline: str = "wcs"
    workload: WorkloadModel = field(default_factory=NormalWorkload)
    policy: DVSPolicy = field(default_factory=GreedySlackPolicy)
    #: Run the simulator's compiled event loop (identical results either way;
    #: ``False`` pins the reference loop, e.g. for equivalence sweeps).
    fast_path: bool = True
    #: Route the simulations through the structure-of-arrays engine of
    #: :mod:`repro.runtime.batched`: one comparison advances all its method
    #: simulations in lock-step, and :func:`iter_comparisons` additionally
    #: batches *across* comparison jobs.  Bitwise-identical results either
    #: way.
    batched: bool = False
    #: Record the typed event stream on every method's
    #: :class:`~repro.runtime.results.SimulationResult` (see
    #: :mod:`repro.runtime.trace`).  Batched units fall back per unit to the
    #: compiled loop.
    trace: bool = False
    #: Optional arrival model perturbing the job releases (``None`` is the
    #: paper's strictly periodic model).
    arrivals: Optional["ArrivalModel"] = None
    #: Plan the offline schedules through the batched planner
    #: (:mod:`repro.offline.batched_solver`): one comparison's scheduler
    #: programs advance in lock-step waves, share the content-addressed
    #: solve memo, and — in batch execution — join the waves of the whole
    #: chunk.  Bitwise-identical schedules either way; ``False`` pins the
    #: per-scheduler sequential solves (e.g. for equivalence sweeps).
    batched_planning: bool = True

    def simulation_config(self) -> SimulationConfig:
        return SimulationConfig(n_hyperperiods=self.n_hyperperiods, seed=self.seed,
                                fast_path=self.fast_path, batched=self.batched,
                                trace=self.trace, arrivals=self.arrivals)

    def with_derived_seed(self, *path: int) -> "ComparisonConfig":
        """A copy whose seed is derived from ``(self.seed, *path)``.

        ``path`` is the stable integer coordinate of the work unit,
        conventionally ending with a stream tag — e.g. ``(point_index,
        sample_index, seeding.SIMULATION_STREAM)`` — so simulation seeds can
        never collide with the task-set generation stream.  A ``None`` seed
        stays ``None``.  This is how the scenario engine seeds every
        work unit; see :mod:`repro.experiments.seeding`.
        """
        if self.seed is None:
            return self
        return replace(self, seed=derive_seed(self.seed, *path))


@dataclass
class MethodOutcome:
    """Static schedule plus simulated runtime energy of one method."""

    method: str
    schedule: StaticSchedule
    simulation: SimulationResult

    @property
    def mean_energy(self) -> float:
        return self.simulation.mean_energy_per_hyperperiod


@dataclass
class ComparisonResult:
    """Outcome of :func:`compare_schedulers` on one task set.

    ``fallback_reasons`` tallies, per reason, how many of this comparison's
    simulation units fell back from the batched SoA engine to the compiled
    loop, keyed ``"batch:<reason>"``.  Empty when nothing fell back — and
    always empty for non-batched runs, whose sequential loop is the chosen
    route, not a fallback.
    """

    taskset_name: str
    outcomes: Dict[str, MethodOutcome]
    baseline: str
    fallback_reasons: Dict[str, int] = field(default_factory=dict)

    def energy(self, method: str) -> float:
        return self.outcomes[method].mean_energy

    def improvement_over_baseline(self, method: str) -> float:
        """Percentage energy reduction of ``method`` relative to the baseline."""
        baseline_energy = self.energy(self.baseline)
        return improvement_percent(baseline_energy, self.energy(method))

    def methods(self) -> List[str]:
        return list(self.outcomes)

    def rows(self) -> List[List[object]]:
        """Table rows: method, mean energy, improvement over baseline, misses."""
        result = []
        for method, outcome in self.outcomes.items():
            result.append([
                method,
                outcome.mean_energy,
                self.improvement_over_baseline(method),
                outcome.simulation.miss_count,
            ])
        return result


def aggregate_fallback_reasons(tallies: Iterable[Optional[Mapping[str, int]]]) -> Dict[str, int]:
    """Merge per-unit/per-result ``{reason: count}`` tallies into one."""
    merged: Dict[str, int] = {}
    for tally in tallies:
        if not tally:
            continue
        for reason, count in tally.items():
            merged[reason] = merged.get(reason, 0) + count
    return merged


def warn_if_excessive_fallback(fallback_reasons: Mapping[str, int], total_units: int,
                               *, context: str) -> None:
    """One-line warning when >50% of a sweep's simulation units fell back.

    A mostly-fallback batched sweep silently runs at compiled-loop speed;
    surfacing it once per sweep (never per unit) tells the user to either
    drop ``batched`` or remove whatever gates the vectorized core.
    """
    fell = sum(count for reason, count in fallback_reasons.items() if reason.startswith("batch:"))
    if total_units > 0 and fell * 2 > total_units:
        reasons = ", ".join(
            f"{reason[len('batch:'):]} x{count}"
            for reason, count in sorted(fallback_reasons.items())
            if reason.startswith("batch:")
        )
        warnings.warn(
            f"{context}: batched engine fell back for {fell}/{total_units} "
            f"simulation units ({reasons})",
            RuntimeWarning,
            stacklevel=3,
        )


# --------------------------------------------------------------------- #
# Scheduler registry
# --------------------------------------------------------------------- #
_SCHEDULER_FACTORIES = {
    "wcs": WCSScheduler,
    "acs": ACSScheduler,
    "max_speed": MaxSpeedScheduler,
    "constant_speed": ConstantSpeedScheduler,
}


def scheduler_names() -> Tuple[str, ...]:
    """Registry names accepted by :func:`make_schedulers` (and the CLI)."""
    return tuple(sorted(_SCHEDULER_FACTORIES))


def make_schedulers(names: Sequence[str], processor: ProcessorModel) -> Dict[str, VoltageScheduler]:
    """Instantiate schedulers from registry names (order preserved).

    Sweep work units ship scheduler *names* rather than instances so that the
    units stay small and trivially picklable for the process pool.
    """
    unknown = [name for name in names if name not in _SCHEDULER_FACTORIES]
    if unknown:
        raise ExperimentError(
            f"unknown schedulers {unknown}; known: {sorted(_SCHEDULER_FACTORIES)}"
        )
    return {name: _SCHEDULER_FACTORIES[name](processor) for name in names}


def default_schedulers(processor: ProcessorModel) -> Dict[str, VoltageScheduler]:
    """The pair the paper compares: ACS against the WCS baseline."""
    return {"wcs": WCSScheduler(processor), "acs": ACSScheduler(processor)}


# --------------------------------------------------------------------- #
# Single comparison
# --------------------------------------------------------------------- #
def _resolve_solve_memo(solve_memo_root: Optional[str]) -> SolveMemo:
    """The solve memo for a worker: persistent when a store root is given.

    A root (the scenario result store's directory, as a picklable string)
    gives every worker process its own :class:`SolveMemo` view onto the same
    on-disk store — puts are atomic, so concurrent workers cooperate instead
    of clashing, and a resumed sweep finds its solves.  The memo lives in a
    ``solve-memo/`` subdirectory so the scenario store's own record listing
    and garbage collection keep seeing only scenario payloads.  Without a
    root the process-wide in-memory memo still deduplicates within the run.
    """
    if solve_memo_root is None:
        return default_solve_memo()
    from ..scenarios.store import ResultStore

    # The memo's backing store tallies its own telemetry family, so scenario
    # payload traffic and solve-memo traffic stay separable in a counter dump.
    return SolveMemo(
        ResultStore(Path(solve_memo_root) / "solve-memo", telemetry_prefix="solve_memo_store")
    )


def _plan_schedules(expansion, methods: Dict[str, VoltageScheduler],
                    cfg: ComparisonConfig,
                    solve_memo: Optional[SolveMemo]) -> Dict[str, StaticSchedule]:
    """Offline-plan one comparison's methods, batched or sequential per config."""
    if cfg.batched_planning:
        (schedules,) = plan_expansions(
            [(expansion, methods)],
            memo=solve_memo if solve_memo is not None else default_solve_memo(),
        )
        return schedules
    return {name: scheduler.schedule_expansion(expansion)
            for name, scheduler in methods.items()}


def _prepare_units(taskset: TaskSet, processor: ProcessorModel,
                   methods: Dict[str, VoltageScheduler],
                   cfg: ComparisonConfig,
                   schedules: Optional[Dict[str, StaticSchedule]] = None,
                   solve_memo: Optional[SolveMemo] = None,
                   ) -> Tuple[Dict[str, StaticSchedule], List[BatchUnit]]:
    """Schedules plus one simulation work unit per method for one comparison.

    Every unit carries its own deepcopied policy (a stateful policy must not
    leak one method's runtime history into the next method's simulation) and
    its own fresh generator seeded with ``cfg.seed`` (paired comparison:
    every method sees the same workload realisations).  Pre-planned
    ``schedules`` (from a cross-job batched planning pass) skip the planning
    stage entirely.
    """
    if schedules is None:
        expansion = expand_fully_preemptive(taskset)
        schedules = _plan_schedules(expansion, methods, cfg, solve_memo)
    sim_config = cfg.simulation_config()
    units = [
        BatchUnit(schedule=schedules[name], processor=processor,
                  policy=copy.deepcopy(cfg.policy), config=sim_config,
                  workload=cfg.workload, rng=np.random.default_rng(cfg.seed))
        for name in schedules
    ]
    return schedules, units


def compare_schedulers(taskset: TaskSet, processor: ProcessorModel,
                       schedulers: Optional[Dict[str, VoltageScheduler]] = None,
                       config: Optional[ComparisonConfig] = None,
                       solve_memo: Optional[SolveMemo] = None) -> ComparisonResult:
    """Schedule ``taskset`` with every scheduler and simulate all of them with paired randomness."""
    cfg = config or ComparisonConfig()
    methods = schedulers or default_schedulers(processor)
    if cfg.baseline not in methods:
        raise ExperimentError(
            f"baseline {cfg.baseline!r} is not among the schedulers {sorted(methods)}"
        )

    fallback_reasons: Dict[str, int] = {}
    schedules, units = _prepare_units(taskset, processor, methods, cfg,
                                      solve_memo=solve_memo)
    if cfg.batched:
        for unit in units:
            reason = batch_fallback_reason(unit)
            if reason is not None:
                key = "batch:" + reason
                fallback_reasons[key] = fallback_reasons.get(key, 0) + 1
        # All methods advance in lock-step through the batched engine.
        with _telemetry().span("sim.comparison"):
            simulations = simulate_batch(units)
    else:
        with _telemetry().span("sim.comparison"):
            simulations = [
                DVSSimulator(processor, policy=unit.policy, config=unit.config)
                .run(unit.schedule, unit.workload, unit.rng)
                for unit in units
            ]
    outcomes = {
        name: MethodOutcome(method=name, schedule=schedules[name], simulation=simulation)
        for name, simulation in zip(schedules, simulations)
    }
    return ComparisonResult(taskset_name=taskset.name, outcomes=outcomes, baseline=cfg.baseline,
                            fallback_reasons=fallback_reasons)


# --------------------------------------------------------------------- #
# Batched, multiprocess execution
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ComparisonJob:
    """One self-contained, picklable work unit of a sweep.

    Either an explicit ``taskset`` is given (case studies, fixed sets), or a
    ``taskset_config`` plus ``taskset_seed`` describe a random task set that
    the worker generates itself — the generation RNG is derived from the seed
    alone, so the same unit always produces the same task set no matter which
    process runs it, or when.
    """

    processor: ProcessorModel
    config: ComparisonConfig
    taskset: Optional[TaskSet] = None
    taskset_config: Optional[RandomTaskSetConfig] = None
    taskset_seed: Optional[int] = None
    taskset_index: int = 0
    schedulers: Tuple[str, ...] = ("wcs", "acs")

    def __post_init__(self) -> None:
        if (self.taskset is None) == (self.taskset_config is None):
            raise ExperimentError(
                "exactly one of taskset / taskset_config must be given"
            )
        if self.taskset_config is not None and self.taskset_seed is None:
            raise ExperimentError("a random-taskset job needs an explicit taskset_seed")

    def resolve_taskset(self) -> TaskSet:
        if self.taskset is not None:
            return self.taskset
        rng = derive_rng(self.taskset_seed)
        return generate_random_taskset(self.taskset_config, self.processor, rng,
                                       index=self.taskset_index)


def random_comparison_job(processor: ProcessorModel, taskset_config: RandomTaskSetConfig,
                          config: ComparisonConfig, *path: int, taskset_index: int = 0,
                          schedulers: Tuple[str, ...] = ("wcs", "acs")) -> ComparisonJob:
    """Build the work unit for one random task set at sweep coordinate ``path``.

    This is the one place that encodes the seed-pairing convention: the
    simulation seed is ``config.seed`` derived over ``(*path,
    SIMULATION_STREAM)`` and the task-set generation seed over ``(*path,
    TASKSET_STREAM)``.  Every random sweep (the scenario engine's
    ``source = "random"`` points) must construct its units through here so the serial/parallel determinism
    guarantee cannot diverge between callers.
    """
    if config.seed is None:
        raise ExperimentError("random_comparison_job needs a non-None config.seed to derive from")
    return ComparisonJob(
        processor=processor,
        config=config.with_derived_seed(*path, SIMULATION_STREAM),
        taskset_config=taskset_config,
        taskset_seed=derive_seed(config.seed, *path, TASKSET_STREAM),
        taskset_index=taskset_index,
        schedulers=tuple(schedulers),
    )


def _execute_comparison_job(job: ComparisonJob,
                            solve_memo_root: Optional[str] = None) -> ComparisonResult:
    """Worker entry point (module-level so the process pool can pickle it)."""
    taskset = job.resolve_taskset()
    schedulers = make_schedulers(job.schedulers, job.processor)
    return compare_schedulers(taskset, job.processor, schedulers, job.config,
                              solve_memo=_resolve_solve_memo(solve_memo_root))


def _execute_comparison_batch(jobs: Sequence[ComparisonJob],
                              solve_memo_root: Optional[str] = None,
                              ) -> List[ComparisonResult]:
    """Run many comparison jobs as one lock-step batch of simulation units.

    Every ``(job, method)`` pair becomes one :class:`BatchUnit`; the batched
    engine advances all of them together.  Offline planning is batched the
    same way: the programs of every ``batched_planning`` job in the chunk
    advance in shared waves, so identical solves across jobs collapse into
    one solve and the memo.  Each unit still carries its own generator and
    policy copy, so the results are bitwise-identical to executing the jobs
    one by one (the batched engine's own contract).
    Module-level so the process pool can pickle it.
    """
    solve_memo = _resolve_solve_memo(solve_memo_root)
    entries = []
    for job in jobs:
        taskset = job.resolve_taskset()
        methods = make_schedulers(job.schedulers, job.processor)
        cfg = job.config
        if cfg.baseline not in methods:
            raise ExperimentError(
                f"baseline {cfg.baseline!r} is not among the schedulers {sorted(methods)}"
            )
        entries.append((job, taskset, methods, cfg, expand_fully_preemptive(taskset)))

    batchable = [index for index, (_, _, _, cfg, _) in enumerate(entries)
                 if cfg.batched_planning]
    planned = plan_expansions(
        [(entries[index][4], entries[index][2]) for index in batchable],
        memo=solve_memo,
    )
    planned_schedules: Dict[int, Dict[str, StaticSchedule]] = dict(zip(batchable, planned))

    prepared = []
    units: List[BatchUnit] = []
    for index, (job, taskset, methods, cfg, expansion) in enumerate(entries):
        schedules = planned_schedules.get(index)
        if schedules is None:
            schedules = {name: scheduler.schedule_expansion(expansion)
                         for name, scheduler in methods.items()}
        schedules, job_units = _prepare_units(taskset, job.processor, methods, cfg,
                                              schedules=schedules)
        fallback_reasons: Dict[str, int] = {}
        for unit in job_units:
            reason = batch_fallback_reason(unit)
            if reason is not None:
                key = "batch:" + reason
                fallback_reasons[key] = fallback_reasons.get(key, 0) + 1
        prepared.append((taskset, cfg, schedules, fallback_reasons))
        units.extend(job_units)
    with _telemetry().span("sim.comparison_batch"):
        simulations = simulate_batch(units)
    results: List[ComparisonResult] = []
    cursor = 0
    for taskset, cfg, schedules, fallback_reasons in prepared:
        outcomes = {}
        for name in schedules:
            outcomes[name] = MethodOutcome(method=name, schedule=schedules[name],
                                           simulation=simulations[cursor])
            cursor += 1
        results.append(ComparisonResult(taskset_name=taskset.name, outcomes=outcomes,
                                        baseline=cfg.baseline,
                                        fallback_reasons=fallback_reasons))
    return results


def iter_comparisons(jobs: Sequence[ComparisonJob], n_jobs: int = 1,
                     solve_memo_root: Optional[str] = None) -> Iterator[ComparisonResult]:
    """Execute comparison jobs, yielding each result as soon as it is known.

    Results arrive in submission order with the same bitwise guarantee as
    :func:`run_comparisons`.  Streaming is what lets incremental consumers
    (the scenario result store) persist every finished unit immediately, so
    a run killed mid-sweep loses at most the units still in flight.

    When every job opts into the batched engine
    (``ComparisonConfig(batched=True)``), jobs are executed as lock-step
    batches instead of one at a time — all jobs at once in-process, or one
    contiguous chunk per worker on the pool.  Results are still yielded in
    submission order and remain bitwise-identical; the trade-off is coarser
    streaming (a batch's results all arrive when the batch completes).
    """
    if n_jobs < 1:
        raise ExperimentError("n_jobs must be at least 1")
    jobs = list(jobs)
    if all(job.config.batched for job in jobs) and len(jobs) > 1:
        if n_jobs == 1:
            yield from _execute_comparison_batch(jobs, solve_memo_root=solve_memo_root)
            return
        workers = min(n_jobs, len(jobs))
        # Contiguous, near-even chunks: worker w takes jobs[w::workers] would
        # reorder results, so slice instead.
        bounds = np.linspace(0, len(jobs), workers + 1).astype(int)
        chunks = [jobs[bounds[w]:bounds[w + 1]] for w in range(workers)]
        chunks = [chunk for chunk in chunks if chunk]
        run_batch = functools.partial(_execute_comparison_batch,
                                      solve_memo_root=solve_memo_root)
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            for batch in pool.map(run_batch, chunks):
                yield from batch
        return
    if n_jobs == 1 or len(jobs) <= 1:
        for job in jobs:
            yield _execute_comparison_job(job, solve_memo_root=solve_memo_root)
        return
    workers = min(n_jobs, len(jobs))
    run_job = functools.partial(_execute_comparison_job,
                                solve_memo_root=solve_memo_root)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(run_job, jobs)


def run_comparisons(jobs: Sequence[ComparisonJob], n_jobs: int = 1,
                    solve_memo_root: Optional[str] = None) -> List[ComparisonResult]:
    """Execute a batch of comparison jobs, optionally on a process pool.

    ``n_jobs=1`` runs in-process (no pool overhead, easiest to debug);
    ``n_jobs>1`` fans the units out over a :class:`ProcessPoolExecutor`.
    Results are returned in submission order and are bitwise-identical for
    any ``n_jobs``, because every unit derives its randomness from its own
    coordinates rather than from shared-generator call order.  A
    ``solve_memo_root`` (the scenario store's directory) makes the offline
    solve memo persistent, so resumed or repeated sweeps skip solved NLPs.
    """
    return list(iter_comparisons(jobs, n_jobs=n_jobs, solve_memo_root=solve_memo_root))

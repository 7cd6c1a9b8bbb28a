"""JSON serialisation of task sets, static schedules and experiment results.

Long experiment sweeps are expensive to recompute, and static schedules are
the artefact a deployment would actually ship to the target (the online DVS
needs only end-times and worst-case budgets).  This module provides plain-JSON
round-trips for both, without pickling arbitrary objects:

* :func:`taskset_to_dict` / :func:`taskset_from_dict`
* :func:`schedule_to_dict` / :func:`schedule_from_dict` (reattaches to a task
  set by re-expanding the hyperperiod and matching sub-instance keys)
* :func:`simulation_result_to_dict`
* :func:`trace_to_dicts` / :func:`trace_from_dicts` (the typed event stream
  of :mod:`repro.runtime.trace`; the golden-trace fixtures under
  ``tests/fixtures/traces/`` are this row form on disk)
* :func:`comparison_result_to_dict` (one experiment-harness comparison)
* :func:`scenario_result_to_dict` (the declarative scenario runner and the
  experiment subcommands, e.g. ``repro sweep --output``; the per-unit
  comparison dictionaries double as the payloads of the content-addressed
  result store, which is what makes store replays bitwise-identical)
* :func:`save_json` / :func:`load_json`
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, TYPE_CHECKING, Union

from ..analysis.preemption import expand_fully_preemptive
from ..core.errors import ReproError
from ..core.task import Task
from ..core.taskset import TaskSet
from ..offline.schedule import StaticSchedule
from ..runtime.results import SimulationResult
from ..runtime.trace import EventTrace

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a hard dependency edge
    from ..allocation.multicore import MulticorePlan
    from ..allocation.partitioners import Partition
    from ..experiments.harness import ComparisonResult
    from ..runtime.multicore import MulticoreResult
    from ..scenarios.engine import ScenarioResult

__all__ = [
    "taskset_to_dict",
    "taskset_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "simulation_result_to_dict",
    "trace_to_dicts",
    "trace_from_dicts",
    "comparison_result_to_dict",
    "partition_to_dict",
    "multicore_plan_to_dict",
    "multicore_result_to_dict",
    "scenario_result_to_dict",
    "save_json",
    "load_json",
]


def taskset_to_dict(taskset: TaskSet) -> Dict:
    """Serialise a task set (tasks plus the resolved priorities)."""
    return {
        "name": taskset.name,
        "tasks": [
            {
                "name": task.name,
                "period": task.period,
                "wcec": task.wcec,
                "acec": task.acec,
                "bcec": task.bcec,
                "deadline": task.deadline,
                "ceff": task.ceff,
                "phase": task.phase,
                "priority": taskset.priority_of(task),
            }
            for task in taskset
        ],
    }


def taskset_from_dict(data: Dict) -> TaskSet:
    """Rebuild a task set serialised by :func:`taskset_to_dict`."""
    try:
        tasks = [
            Task(
                name=entry["name"],
                period=entry["period"],
                wcec=entry["wcec"],
                acec=entry.get("acec"),
                bcec=entry.get("bcec"),
                deadline=entry.get("deadline"),
                ceff=entry.get("ceff", 1.0),
                phase=entry.get("phase", 0.0),
                priority=entry.get("priority"),
            )
            for entry in data["tasks"]
        ]
    except KeyError as error:
        raise ReproError(f"task-set dictionary is missing field {error}") from None
    return TaskSet(tasks, priority_policy="explicit", name=data.get("name", "taskset"))


def schedule_to_dict(schedule: StaticSchedule) -> Dict:
    """Serialise a static schedule (what the online DVS phase needs)."""
    return {
        "method": schedule.method,
        "horizon": schedule.expansion.horizon,
        "objective_value": schedule.objective_value,
        "taskset": taskset_to_dict(schedule.expansion.taskset),
        "entries": [
            {
                "key": entry.key,
                "end_time": entry.end_time,
                "wc_budget": entry.wc_budget,
                "avg_budget": entry.avg_budget,
            }
            for entry in schedule.entries
        ],
    }


def schedule_from_dict(data: Dict) -> StaticSchedule:
    """Rebuild a static schedule serialised by :func:`schedule_to_dict`.

    The fully preemptive expansion is reconstructed from the embedded task set
    and the entries are matched by sub-instance key, so the loaded schedule is
    a first-class object (it can be validated, simulated and rendered).
    """
    taskset = taskset_from_dict(data["taskset"])
    expansion = expand_fully_preemptive(taskset, data.get("horizon"))
    by_key = {entry["key"]: entry for entry in data["entries"]}
    missing = [sub.key for sub in expansion.sub_instances if sub.key not in by_key]
    if missing:
        raise ReproError(
            f"schedule data does not cover sub-instances {missing[:5]}"
            + ("..." if len(missing) > 5 else "")
        )
    end_times = [by_key[sub.key]["end_time"] for sub in expansion.sub_instances]
    budgets = [by_key[sub.key]["wc_budget"] for sub in expansion.sub_instances]
    return StaticSchedule.from_vectors(
        expansion, end_times, budgets,
        method=data.get("method", "loaded"),
        objective_value=data.get("objective_value"),
        metadata={"loaded": True},
    )


def trace_to_dicts(trace: EventTrace) -> List[Dict]:
    """Serialise a typed event stream as plain JSON-compatible rows."""
    return trace.to_dicts()


def trace_from_dicts(rows: List[Dict]) -> EventTrace:
    """Rebuild an :class:`~repro.runtime.trace.EventTrace` from its row form."""
    return EventTrace.from_dicts(rows)


def simulation_result_to_dict(result: SimulationResult) -> Dict:
    """Serialise the aggregate outcome of a simulation run (without the timeline).

    When the run recorded the typed event stream (``SimulationConfig(trace=True)``)
    the events ride along under ``"events"``; the key is absent otherwise, so
    trace-off payloads are byte-for-byte what they always were.
    """
    data = {
        "method": result.method,
        "policy": result.policy,
        "n_hyperperiods": result.n_hyperperiods,
        "total_energy": result.total_energy,
        "mean_energy_per_hyperperiod": result.mean_energy_per_hyperperiod,
        "transition_energy": result.transition_energy,
        "energy_by_task": dict(result.energy_by_task),
        "jobs_completed": result.jobs_completed,
        "deadline_misses": [
            {
                "task": miss.task_name,
                "job_index": miss.job_index,
                "hyperperiod_index": miss.hyperperiod_index,
                "deadline": miss.deadline,
                "finish_time": miss.finish_time,
            }
            for miss in result.deadline_misses
        ],
    }
    if result.trace is not None:
        data["events"] = trace_to_dicts(result.trace)
    return data


def _method_to_dict(result: "ComparisonResult", method: str) -> Dict:
    outcome = result.outcomes[method]
    data = {
        "mean_energy_per_hyperperiod": outcome.mean_energy,
        "improvement_over_baseline_percent": result.improvement_over_baseline(method),
        "total_energy": outcome.simulation.total_energy,
        "deadline_misses": outcome.simulation.miss_count,
        "policy": outcome.simulation.policy,
    }
    if outcome.simulation.trace is not None:
        data["events"] = trace_to_dicts(outcome.simulation.trace)
    return data


def comparison_result_to_dict(result: "ComparisonResult") -> Dict:
    """Serialise one task set's scheduler comparison (per-method aggregates).

    Methods simulated with ``trace=True`` additionally carry their event
    stream under ``methods.<name>.events`` (absent otherwise — trace-off
    payloads, and therefore their store hashes, are unchanged).  The same
    non-default-only rule covers ``fallback_reasons``: the key appears
    only when a batched stage actually fell back, so the payload bytes of
    every pre-existing (and every fully-vectorized) comparison are
    untouched.
    """
    data = {
        "taskset": result.taskset_name,
        "baseline": result.baseline,
        "methods": {
            method: _method_to_dict(result, method)
            for method in result.outcomes
        },
    }
    if result.fallback_reasons:
        data["fallback_reasons"] = dict(result.fallback_reasons)
    return data


def partition_to_dict(partition: "Partition") -> Dict:
    """Serialise a task-to-core assignment (what a multicore deployment ships first)."""
    return {
        "partitioner": partition.partitioner,
        "n_cores": partition.n_cores,
        "taskset": taskset_to_dict(partition.taskset),
        "assignment": partition.assignment,
        "cores": [
            None if core_set is None else [task.name for task in core_set]
            for core_set in partition.core_tasksets
        ],
    }


def multicore_plan_to_dict(plan: "MulticorePlan") -> Dict:
    """Serialise a multicore plan: the partition plus one static schedule per core."""
    return {
        "method": plan.method,
        "hyperperiod": plan.hyperperiod,
        "partition": partition_to_dict(plan.partition),
        "schedules": [
            None if schedule is None else schedule_to_dict(schedule)
            for schedule in plan.schedules
        ],
    }


def multicore_result_to_dict(result: "MulticoreResult") -> Dict:
    """Serialise a multicore simulation (aggregates plus every core's result)."""
    return {
        "method": result.method,
        "policy": result.policy,
        "partitioner": result.partitioner,
        "n_cores": result.n_cores,
        "n_hyperperiods": result.n_hyperperiods,
        "hyperperiod": result.hyperperiod,
        "total_energy": result.total_energy,
        "mean_energy_per_hyperperiod": result.mean_energy_per_hyperperiod,
        "transition_energy": result.transition_energy,
        "deadline_misses": result.miss_count,
        "jobs_completed": result.jobs_completed,
        "assignment": dict(result.assignment),
        "core_utilizations": list(result.core_utilizations),
        "core_average_utilizations": list(result.core_average_utilizations),
        "core_slacks": list(result.core_slacks),
        "cores": [
            None if core_result is None else simulation_result_to_dict(core_result)
            for core_result in result.core_results
        ],
    }


def scenario_result_to_dict(result: "ScenarioResult") -> Dict:
    """Serialise a declarative scenario run (resolved spec, aggregates, store counters).

    ``elapsed_seconds`` is the only non-deterministic field; the point
    aggregates are computed from the store's payload form and are therefore
    bitwise-stable across reruns, worker counts and warm/cold stores.
    """
    data = {
        "scenario": result.spec.to_dict(),
        "points": [dict(point) for point in result.points],
        "computed": result.computed,
        "skipped": result.skipped,
        "elapsed_seconds": result.elapsed_seconds,
    }
    if result.fallback_reasons:
        data["fallback_reasons"] = dict(result.fallback_reasons)
    return data


def save_json(data: Dict, path: Union[str, Path]) -> Path:
    """Write a serialised dictionary to ``path`` as pretty-printed JSON."""
    target = Path(path)
    target.write_text(json.dumps(data, indent=2, sort_keys=True))
    return target


def load_json(path: Union[str, Path]) -> Dict:
    """Read a JSON file written by :func:`save_json`."""
    return json.loads(Path(path).read_text())

"""Batched offline planning: scheduler programs in lock-step waves plus a solve memo.

A Figure-6 sweep solves hundreds of *independent* :class:`~repro.offline.nlp.ReducedNLP`
instances — one ACS and one WCS problem per task set, plus the WCS-seeded
ACS re-solves.  Many of them are duplicates: every ACS seeding solve repeats
its task set's WCS solve, and resumed or reseeded sweeps repeat whole plans.
This module solves each distinct problem once without changing a single bit
of any schedule:

* **Scheduler programs** (:meth:`~repro.offline.base.VoltageScheduler.schedule_program`)
  describe a scheduler's solve sequence as waves of :class:`NLPSolveTask`
  requests.  :func:`run_programs` drives many programs in lock-step, so the
  solves of a whole sweep meet in shared waves and identical requests within
  a wave are solved once.
* **The solve memo** (:class:`SolveMemo`) is a content-addressed cache keyed —
  with the result store's hashing discipline (:func:`~repro.scenarios.store.signature_key`)
  — by everything solve-relevant: the task set, the horizon, the processor,
  the workload mode, the solver options, the scenario set and the warm-start
  vector.  ACS/WCS re-solves of identical task sets across policies, seeds
  and resumed sweeps then cost one solve; backed by a
  :class:`~repro.scenarios.store.ResultStore` the memo survives a killed sweep.

Every remaining solve is a plain ``task.nlp.solve(task.x0)`` on the calling
thread, so for the same inputs the planner returns schedules bitwise-identical
to sequential ``schedule_expansion`` calls (``tests/offline/test_batched_solver.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Dict, Generator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import SchedulingError
from ..power.processor import ProcessorModel
from ..telemetry.core import current as _telemetry
from .nlp import ReducedNLP
from .schedule import StaticSchedule

__all__ = [
    "NLPSolveTask",
    "SolveMemo",
    "SchedulerProgram",
    "default_solve_memo",
    "plan_expansions",
    "run_program",
    "run_programs",
    "solve_signature",
    "solve_tasks",
]

#: A scheduler program: yields waves of solve tasks, receives the matching
#: wave of schedules, and returns the final schedule via ``StopIteration``.
SchedulerProgram = Generator[Tuple["NLPSolveTask", ...], Tuple[StaticSchedule, ...], StaticSchedule]

#: Telemetry counter names, precomputed so the disabled path allocates nothing.
_MEMO_HIT = "solve_memo.hit"
_MEMO_MISS = "solve_memo.miss"
_MEMO_COMPUTED = "solve_memo.computed"


@dataclass(frozen=True)
class NLPSolveTask:
    """One solver invocation: a reduced NLP plus an optional warm-start vector."""

    nlp: ReducedNLP
    x0: Optional[np.ndarray] = None


# --------------------------------------------------------------------- #
# Solve memo (content-addressed, ResultStore hashing discipline)
# --------------------------------------------------------------------- #
def _processor_signature(processor: ProcessorModel) -> Dict[str, Any]:
    # What the scenario store and the solve memo hash for a processor (the
    # ``name`` label is deliberately absent: it cannot influence a result).
    return {
        "vmax": processor.vmax,
        "vmin": processor.vmin,
        "fmax": processor.fmax,
        "vth": processor.vth,
        "alpha": processor.alpha,
        "ceff": processor.ceff,
        "law": processor.law,
    }


def solve_signature(task: NLPSolveTask) -> Dict[str, Any]:
    """Everything that determines a solve's outcome, as a canonical dictionary.

    ``verbose`` is excluded (it only toggles solver chatter); every other
    option, the task set, the horizon, the processor physics, the workload
    mode, the scenario set and the warm start all shape the trajectory and
    are therefore part of the key.
    """
    # Lazy imports: pulling the reporting/scenario packages in at module load
    # would close an import cycle (scenarios.engine itself plans schedules).
    from ..reporting.serialization import taskset_to_dict
    from ..scenarios.store import STORE_FORMAT

    nlp = task.nlp
    options = asdict(nlp.options)
    options.pop("verbose", None)
    scenarios = None
    if nlp.scenarios is not None:
        scenarios = [[weight, dict(actual)] for weight, actual in nlp.scenarios]
    return {
        "store_format": STORE_FORMAT,
        "kind": "nlp-solve",
        "taskset": taskset_to_dict(nlp.expansion.taskset),
        "horizon": nlp.expansion.horizon,
        "processor": _processor_signature(nlp.processor),
        "workload_mode": nlp.workload_mode,
        "options": options,
        "scenarios": scenarios,
        "x0": None if task.x0 is None else [float(v) for v in np.asarray(task.x0, dtype=float)],
    }


def _schedule_payload(schedule: StaticSchedule) -> Dict[str, Any]:
    """The JSON-safe memo record a schedule round-trips through."""
    return {
        "method": schedule.method,
        "objective_value": schedule.objective_value,
        "end_times": [float(v) for v in schedule.end_times()],
        "wc_budgets": [float(v) for v in schedule.wc_budgets()],
        "metadata": dict(schedule.metadata),
    }


def _schedule_from_payload(nlp: ReducedNLP, payload: Mapping[str, Any]) -> StaticSchedule:
    """Rebuild a memoized schedule against the requesting task's expansion.

    ``from_vectors`` re-derives the average-case budgets deterministically,
    and JSON floats round-trip exactly, so the reconstruction is
    bitwise-identical to the schedule a fresh solve would return.
    """
    return StaticSchedule.from_vectors(
        nlp.expansion,
        payload["end_times"],
        payload["wc_budgets"],
        method=payload["method"],
        objective_value=payload["objective_value"],
        metadata=dict(payload["metadata"]),
    )


class SolveMemo:
    """Content-addressed cache of NLP solves.

    Backed either by an in-process dictionary (the default — bounded FIFO, so
    a long-lived process cannot grow without limit) or by any store with the
    :class:`~repro.scenarios.store.ResultStore` ``get``/``put`` interface,
    which makes solves resumable across killed sweeps and worker processes.

    ``hits`` counts solves answered from the memo (including in-flight
    duplicates deduplicated within one wave); ``computed`` counts solver
    invocations that actually ran.  Not thread-safe: planning runs on the
    calling thread.
    """

    def __init__(self, store: Optional[Any] = None, *, max_entries: int = 512):
        self._store = store
        self._local: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._max_entries = max_entries
        self.hits = 0
        self.computed = 0

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        payload = self._local.get(key)
        if payload is None and self._store is not None:
            payload = self._store.get(key)
        if payload is not None:
            self.hits += 1
            _telemetry().count(_MEMO_HIT)
        else:
            _telemetry().count(_MEMO_MISS)
        return payload

    def record(self, key: str, payload: Mapping[str, Any], *, label: str = "") -> None:
        self.computed += 1
        _telemetry().count(_MEMO_COMPUTED)
        self._local[key] = dict(payload)
        while len(self._local) > self._max_entries:
            self._local.popitem(last=False)
        if self._store is not None:
            self._store.put(key, payload, scenario="nlp-solve", label=label)


_DEFAULT_MEMO = SolveMemo()


def default_solve_memo() -> SolveMemo:
    """The process-wide in-memory memo used when no explicit memo is given."""
    return _DEFAULT_MEMO


# --------------------------------------------------------------------- #
# Wave solving and program driving
# --------------------------------------------------------------------- #
def solve_tasks(
    tasks: Sequence[NLPSolveTask],
    memo: Optional[SolveMemo] = None,
) -> List[StaticSchedule]:
    """Solve one wave of tasks: memoized, deduplicated, then solved in order.

    Order of resolution per task: a memo hit replays the stored vectors; an
    in-flight duplicate (identical signature within this wave) is solved once
    and every requester receives its own reconstructed schedule (schedules
    are mutable — sharing one object across requesters would leak one
    caller's mutations into another's); the rest are solved one by one, in
    task order, on the calling thread, and recorded in the memo.
    """
    from ..scenarios.store import signature_key

    tasks = list(tasks)
    schedules: List[Optional[StaticSchedule]] = [None] * len(tasks)
    keys = [signature_key(solve_signature(task)) for task in tasks]

    first_of: Dict[str, int] = {}
    duplicates: Dict[int, int] = {}
    unique: List[int] = []
    for index, key in enumerate(keys):
        payload = memo.lookup(key) if memo is not None else None
        if payload is not None:
            schedules[index] = _schedule_from_payload(tasks[index].nlp, payload)
        elif key in first_of:
            duplicates[index] = first_of[key]
        else:
            first_of[key] = index
            unique.append(index)

    if unique:
        with _telemetry().span("solve.wave"):
            for index in unique:
                schedules[index] = tasks[index].nlp.solve(tasks[index].x0)

    if memo is not None:
        for index in unique:
            label = f"{tasks[index].nlp.expansion.taskset.name}/{tasks[index].nlp.workload_mode}"
            memo.record(keys[index], _schedule_payload(schedules[index]), label=label)
    for index, source in duplicates.items():
        if memo is not None:
            memo.hits += 1
        schedules[index] = _schedule_from_payload(
            tasks[index].nlp, _schedule_payload(schedules[source])
        )
    return [schedule for schedule in schedules]


def run_program(program: SchedulerProgram) -> StaticSchedule:
    """Drive one scheduler program sequentially (the reference path).

    Tasks are solved one by one in yield order — exactly the call sequence
    the pre-program ``schedule_expansion`` implementations performed.
    """
    try:
        tasks = next(program)
        while True:
            tasks = program.send(tuple(task.nlp.solve(task.x0) for task in tasks))
    except StopIteration as stop:
        if stop.value is None:
            raise SchedulingError("scheduler program finished without a schedule") from None
        return stop.value


def run_programs(programs: Sequence[SchedulerProgram],
                 memo: Optional[SolveMemo] = None) -> List[StaticSchedule]:
    """Drive many scheduler programs in lock-step waves.

    Each round advances every active program by one wave and solves the union
    of their yielded tasks through :func:`solve_tasks`, so identical requests
    from different programs (ACS's WCS seed is WCS's own solve) meet in one
    wave and are solved once.
    """
    programs = list(programs)
    results: List[Optional[StaticSchedule]] = [None] * len(programs)
    inbox: List[Tuple[StaticSchedule, ...]] = [()] * len(programs)
    started = [False] * len(programs)
    active = list(range(len(programs)))
    while active:
        wave: List[Tuple[int, Tuple[NLPSolveTask, ...]]] = []
        still_active: List[int] = []
        for index in active:
            try:
                if started[index]:
                    tasks = programs[index].send(inbox[index])
                else:
                    started[index] = True
                    tasks = next(programs[index])
            except StopIteration as stop:
                if stop.value is None:
                    raise SchedulingError("scheduler program finished without a schedule") from None
                results[index] = stop.value
                continue
            wave.append((index, tuple(tasks)))
            still_active.append(index)
        active = still_active
        if not wave:
            break
        solved = solve_tasks([task for _, tasks in wave for task in tasks], memo=memo)
        cursor = 0
        for index, tasks in wave:
            inbox[index] = tuple(solved[cursor:cursor + len(tasks)])
            cursor += len(tasks)
    return [result for result in results]


def plan_expansions(
    items: Sequence[Tuple[Any, Mapping[str, Any]]],
    memo: Optional[SolveMemo] = None,
) -> List[Dict[str, StaticSchedule]]:
    """Plan many ``(expansion, {name: scheduler})`` groups as one set of waves.

    This is the harness entry point: every scheduler of every group
    contributes its program, all programs advance in lock-step, and the
    result is one ``{name: schedule}`` dictionary per group — bitwise what
    per-group sequential ``schedule_expansion`` calls produce.
    """
    programs: List[SchedulerProgram] = []
    placements: List[Tuple[int, str]] = []
    for group, (expansion, methods) in enumerate(items):
        for name, scheduler in methods.items():
            programs.append(scheduler.schedule_program(expansion))
            placements.append((group, name))
    with _telemetry().span("plan.batched"):
        schedules = run_programs(programs, memo=memo)
    out: List[Dict[str, StaticSchedule]] = [{} for _ in items]
    for (group, name), schedule in zip(placements, schedules):
        out[group][name] = schedule
    return out

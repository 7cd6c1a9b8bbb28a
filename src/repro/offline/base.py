"""Common interface for offline voltage schedulers."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

from ..analysis.preemption import FullyPreemptiveSchedule, expand_fully_preemptive
from ..core.taskset import TaskSet
from ..power.processor import ProcessorModel
from .schedule import StaticSchedule

__all__ = ["VoltageScheduler"]


@dataclass
class VoltageScheduler(ABC):
    """Base class for every offline voltage scheduler.

    A scheduler turns a task set (or a pre-computed fully preemptive
    expansion) into a :class:`StaticSchedule`.  Subclasses implement
    :meth:`schedule_expansion`; the convenience :meth:`schedule` expands the
    task set first.
    """

    processor: ProcessorModel

    @property
    def name(self) -> str:
        """Short identifier used in reports (e.g. ``"acs"``)."""
        return type(self).__name__.replace("Scheduler", "").lower()

    def schedule(self, taskset: TaskSet, horizon: Optional[float] = None) -> StaticSchedule:
        """Expand ``taskset`` over one hyperperiod (or ``horizon``) and schedule it."""
        expansion = expand_fully_preemptive(taskset, horizon)
        return self.schedule_expansion(expansion)

    @abstractmethod
    def schedule_expansion(self, expansion: FullyPreemptiveSchedule) -> StaticSchedule:
        """Compute the static schedule for an existing expansion."""

    def schedule_program(self, expansion: FullyPreemptiveSchedule):
        """The scheduler's solve sequence as a batchable *program*.

        A program is a generator that yields waves of
        :class:`~repro.offline.batched_solver.NLPSolveTask` tuples, receives
        the matching tuple of solved :class:`StaticSchedule` objects for each
        wave, and returns the final schedule.  Driving a program sequentially
        (:func:`~repro.offline.batched_solver.run_program`) reproduces
        :meth:`schedule_expansion` bitwise; driving many programs together
        (:func:`~repro.offline.batched_solver.run_programs`) lets the batched
        planner solve identical requests across programs once.

        The default delegates to :meth:`schedule_expansion` without yielding —
        right for schedulers that do not solve NLPs.  Schedulers built on
        :class:`~repro.offline.nlp.ReducedNLP` override this and express
        :meth:`schedule_expansion` in terms of it.
        """
        return self.schedule_expansion(expansion)
        yield ()  # pragma: no cover - unreachable; makes this a generator

"""Analytic (total-order) evaluation of a static schedule.

Given the end-times ``E`` and worst-case budgets ``w`` of every sub-instance,
this module predicts the runtime behaviour under the paper's greedy
slack-reclamation DVS for a *given* realisation of the actual execution cycles
of each job — without running the event-driven simulator.  It propagates
completion times along the total order of the fully preemptive schedule:

* a sub-instance starts at ``max(its slot start, previous finish)`` — its
  worst-case budget only becomes available once the higher-priority release
  that defines the slot has happened, which is what keeps the worst case
  feasible (constraint (9) of the paper bounds early starts by exactly the
  slack of the previous sub-instance in the total order);
* its speed is the one the online DVS would pick: worst-case budget over the
  time left until its planned end-time, clipped to the processor range;
* it executes the cycles the sequential-fill rule assigns to it and finishes
  accordingly; the saved time is automatically inherited by the next
  sub-instance in the order (greedy reclamation).

This evaluator is the objective function of the reduced ACS formulation (with
actual = ACEC) and of the WCS baseline (actual = WCEC); it is also a handy
cross-check against the discrete-event simulator (see
``tests/integration/test_simulator_vs_analytic.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.preemption import FullyPreemptiveSchedule
from ..core.errors import SchedulingError
from ..power.processor import ProcessorModel
from .schedule import StaticSchedule

__all__ = [
    "AnalyticOutcome",
    "CompiledEvaluation",
    "evaluate_vectors",
    "evaluate_schedule",
    "worst_case_energy",
    "average_case_energy",
]

_EPS = 1e-12


@dataclass
class AnalyticOutcome:
    """Result of an analytic evaluation of one hyperperiod."""

    energy: float
    finish_times: Dict[str, float]
    sub_finish_times: List[float]
    deadline_misses: List[str]

    @property
    def feasible(self) -> bool:
        return not self.deadline_misses


def evaluate_vectors(expansion: FullyPreemptiveSchedule, end_times: Sequence[float],
                     wc_budgets: Sequence[float], processor: ProcessorModel,
                     actual_cycles: Optional[Dict[str, float]] = None,
                     *, collect_details: bool = True) -> AnalyticOutcome:
    """Propagate one hyperperiod analytically.

    Parameters
    ----------
    expansion:
        The fully preemptive expansion (defines the total order and jobs).
    end_times / wc_budgets:
        Planned end-time and worst-case budget per sub-instance, in total order.
    processor:
        The DVS processor model.
    actual_cycles:
        Mapping from job key (``"T1[0]"``) to the cycles that job actually
        requires.  Defaults to every job taking its ACEC.
    collect_details:
        When ``False`` only the energy is computed (used inside the optimiser's
        inner loop to avoid building dictionaries).
    """
    subs = expansion.sub_instances
    if len(end_times) != len(subs) or len(wc_budgets) != len(subs):
        raise SchedulingError(
            f"expected {len(subs)} end-times and budgets, got {len(end_times)}/{len(wc_budgets)}"
        )

    remaining: Dict[str, float] = {}
    for instance in expansion.instances:
        if actual_cycles is None:
            remaining[instance.key] = instance.acec
        else:
            remaining[instance.key] = actual_cycles.get(instance.key, instance.acec)

    energy = 0.0
    previous_finish = 0.0
    finish_times: Dict[str, float] = {}
    sub_finishes: List[float] = []
    misses: List[str] = []

    for index, sub in enumerate(subs):
        instance = sub.instance
        budget = max(float(wc_budgets[index]), 0.0)
        end_time = float(end_times[index])
        executed = min(budget, max(remaining[instance.key], 0.0))
        start = max(sub.slot_start, previous_finish)
        if executed > _EPS:
            available = end_time - start
            if available <= _EPS:
                frequency = processor.fmax
            else:
                frequency = processor.clip_frequency(budget / available)
            voltage = processor.voltage_for_frequency(frequency)
            frequency = processor.frequency(voltage)
            duration = executed / frequency
            energy += processor.energy(executed, voltage, instance.task.ceff)
            finish = start + duration
            remaining[instance.key] -= executed
        else:
            finish = start
        previous_finish = max(previous_finish, finish)
        if collect_details:
            sub_finishes.append(finish)
            if remaining[instance.key] <= _EPS and instance.key not in finish_times:
                finish_times[instance.key] = finish

    if collect_details:
        for instance in expansion.instances:
            finish = finish_times.get(instance.key)
            if finish is None:
                # The job never completed within its budgets (should not happen
                # when budgets sum to the WCEC and actual <= WCEC).
                misses.append(instance.key)
            elif finish > instance.deadline + 1e-9 * max(1.0, instance.deadline):
                misses.append(instance.key)

    return AnalyticOutcome(
        energy=energy,
        finish_times=finish_times,
        sub_finish_times=sub_finishes,
        deadline_misses=misses,
    )


class CompiledEvaluation:
    """Pre-indexed form of the analytic greedy propagation, with its gradient.

    The reduced NLP evaluates :func:`evaluate_vectors` (energy only) thousands
    of times per solve.  This class compiles the parts of the evaluation that
    do not depend on the decision variables (slot starts, per-sub-instance
    task constants, the job each sub-instance fills, the processor's
    linear-law constants) and offers

    * :meth:`energy` — a drop-in scalar evaluation, **bitwise-identical** to
      ``evaluate_vectors(...).energy`` (every arithmetic operation in the same
      order with the same associativity; ``tests/offline/test_evaluation.py``
      asserts exact equality), and
    * :meth:`energy_and_gradient` — the same energy plus its exact gradient
      with respect to every end-time and worst-case budget, from one recorded
      forward pass and one reverse pass.

    Only ``law="linear"`` processors are supported — both loops inline the
    linear delay law — and :meth:`supported` reports whether a processor
    qualifies; callers fall back to :func:`evaluate_vectors` otherwise.
    """

    def __init__(self, expansion: FullyPreemptiveSchedule, processor: ProcessorModel,
                 actual_cycles: Optional[Dict[str, float]] = None) -> None:
        if not self.supported(processor):
            raise SchedulingError(
                f"CompiledEvaluation requires a linear-law processor, got law={processor.law!r}"
            )
        subs = expansion.sub_instances
        instances = expansion.instances
        self.expansion = expansion
        self.processor = processor
        self.n_subs = len(subs)

        instance_index = {instance.key: i for i, instance in enumerate(instances)}
        self._slot_starts = [sub.slot_start for sub in subs]
        self._ceffs = [sub.task.ceff for sub in subs]
        self._instance_of_sub = [instance_index[sub.instance.key] for sub in subs]
        remaining = []
        for instance in instances:
            if actual_cycles is None:
                remaining.append(instance.acec)
            else:
                remaining.append(actual_cycles.get(instance.key, instance.acec))
        self._initial_remaining = remaining

        self._fmax = processor.fmax
        self._fmin = processor.fmin
        self._vmin = processor.vmin
        self._vmax = processor.vmax
        self._k = processor._k

    @staticmethod
    def supported(processor: ProcessorModel) -> bool:
        """Whether the compiled evaluation handles ``processor``'s delay law."""
        return processor.law == "linear"

    def energy(self, end_times: Sequence[float], wc_budgets: Sequence[float]) -> float:
        """Energy of one hyperperiod; equals ``evaluate_vectors(...).energy`` bitwise."""
        ends = np.asarray(end_times, dtype=float).tolist()
        budgets = np.asarray(wc_budgets, dtype=float).tolist()
        return self.energy_from_lists(ends, budgets)

    def energy_from_lists(self, ends: List[float], budgets: List[float]) -> float:
        """:meth:`energy` on plain float lists (no array round-trip)."""
        remaining = list(self._initial_remaining)
        slot_starts = self._slot_starts
        ceffs = self._ceffs
        instance_of_sub = self._instance_of_sub
        fmax = self._fmax
        fmin = self._fmin
        vmin = self._vmin
        vmax = self._vmax
        k = self._k

        energy = 0.0
        previous_finish = 0.0
        # Branch-inlined max/min (ties keep the first operand, exactly like
        # the builtins): this loop runs once per solver evaluation, and the
        # call overhead of max()/min() is its dominant cost.
        for index in range(self.n_subs):
            budget = budgets[index]
            if budget < 0.0:
                budget = 0.0
            instance = instance_of_sub[index]
            rem = remaining[instance]
            positive_rem = rem if rem >= 0.0 else 0.0
            executed = budget if budget <= positive_rem else positive_rem
            slot = slot_starts[index]
            start = slot if slot >= previous_finish else previous_finish
            if executed > _EPS:
                available = ends[index] - start
                if available <= _EPS:
                    frequency = fmax
                else:
                    frequency = budget / available
                    if frequency < fmin:
                        frequency = fmin
                    elif frequency > fmax:
                        frequency = fmax
                # voltage_for_frequency / frequency(voltage), linear law inlined.
                if frequency <= 0:
                    voltage = vmin
                elif frequency >= fmax:
                    voltage = vmax
                elif frequency <= fmin:
                    voltage = vmin
                else:
                    voltage = frequency * k
                    if voltage < vmin:
                        voltage = vmin
                    elif voltage > vmax:
                        voltage = vmax
                frequency = voltage / k
                energy += executed * ((ceffs[index] * voltage) * voltage)
                finish = start + executed / frequency
                remaining[instance] = rem - executed
                if finish > previous_finish:
                    previous_finish = finish
            elif start > previous_finish:
                previous_finish = start
        return energy

    def energy_and_gradient(self, ends: List[float], budgets: List[float]
                            ) -> Tuple[float, List[float], List[float]]:
        """Energy and its exact gradient: ``(energy, d/d ends, d/d budgets)``.

        The forward pass is :meth:`energy_from_lists` operation for operation,
        so the energy is bitwise-equal to it; it also records, per
        sub-instance, which branch each ``max``/``min``/clip took.  The reverse
        pass then carries the adjoints of the running previous finish and of
        every job's remaining cycles back along the total order — two passes
        whatever the number of variables.

        **Tie rule.**  The energy is piecewise smooth.  At a kink — a start
        where slot start and previous finish are equal, a budget equal to the
        job's remaining cycles, a frequency or voltage exactly at a clip
        limit, a finish equal to the previous finish — the gradient is the
        one of the branch the forward code took (the builtins' "first operand
        wins" convention of :meth:`energy_from_lists`).  Clipped quantities
        (a negative budget clipped to 0, a frequency clipped to ``fmin`` /
        ``fmax``, an ``available <= 1e-12`` window run at ``fmax``) have zero
        derivative, and sub-instances that execute nothing contribute only
        through the previous finish they pass on.
        """
        remaining = list(self._initial_remaining)
        slot_starts = self._slot_starts
        ceffs = self._ceffs
        instance_of_sub = self._instance_of_sub
        fmax = self._fmax
        fmin = self._fmin
        vmin = self._vmin
        vmax = self._vmax
        k = self._k
        n_subs = self.n_subs

        energy = 0.0
        previous_finish = 0.0
        # One row per sub-instance: ``None`` for a step that executed nothing
        # and whose start (the slot start) overtook the previous finish, the
        # empty tuple for one that passed the previous finish on unchanged,
        # else the values and branches the reverse pass needs.
        tape: List[Optional[tuple]] = [None] * n_subs
        for index in range(n_subs):
            budget = budgets[index]
            budget_clipped = budget < 0.0
            if budget_clipped:
                budget = 0.0
            instance = instance_of_sub[index]
            rem = remaining[instance]
            positive_rem = rem if rem >= 0.0 else 0.0
            from_budget = budget <= positive_rem
            executed = budget if from_budget else positive_rem
            slot = slot_starts[index]
            from_slot = slot >= previous_finish
            start = slot if from_slot else previous_finish
            if executed > _EPS:
                available = ends[index] - start
                scaled = False
                if available <= _EPS:
                    frequency = fmax
                else:
                    frequency = budget / available
                    if frequency < fmin:
                        frequency = fmin
                    elif frequency > fmax:
                        frequency = fmax
                if frequency <= 0:
                    voltage = vmin
                elif frequency >= fmax:
                    voltage = vmax
                elif frequency <= fmin:
                    voltage = vmin
                else:
                    voltage = frequency * k
                    if voltage < vmin:
                        voltage = vmin
                    elif voltage > vmax:
                        voltage = vmax
                    else:
                        # Only reachable with budget / available strictly
                        # inside (fmin, fmax): the voltage follows both.
                        scaled = True
                frequency = voltage / k
                ceff = ceffs[index]
                energy += executed * ((ceff * voltage) * voltage)
                finish = start + executed / frequency
                remaining[instance] = rem - executed
                extends = finish > previous_finish
                if extends:
                    previous_finish = finish
                tape[index] = (
                    instance, budget_clipped, from_budget, rem >= 0.0, from_slot, extends,
                    scaled, budget, available, executed, ceff, voltage, frequency,
                )
            elif start > previous_finish:
                previous_finish = start
            else:
                tape[index] = ()

        grad_ends = [0.0] * n_subs
        grad_budgets = [0.0] * n_subs
        grad_remaining = [0.0] * len(remaining)
        grad_previous = 0.0
        for index in range(n_subs - 1, -1, -1):
            row = tape[index]
            if row is None:
                grad_previous = 0.0
                continue
            if not row:
                continue
            (instance, budget_clipped, from_budget, rem_positive, from_slot, extends,
             scaled, budget, available, executed, ceff, voltage, frequency) = row
            if extends:
                grad_finish = grad_previous
                grad_previous = 0.0
            else:
                grad_finish = 0.0
            # finish = start + executed / frequency; energy += executed·ceff·v²;
            # remaining -= executed; frequency = v / k.
            grad_start = grad_finish
            grad_executed = (grad_finish / frequency + (ceff * voltage) * voltage
                             - grad_remaining[instance])
            grad_budget = 0.0
            if scaled:
                grad_frequency = -grad_finish * executed / (frequency * frequency)
                grad_voltage = 2.0 * executed * ceff * voltage + grad_frequency / k
                # voltage = (budget / available) · k
                grad_ratio = grad_voltage * k / available
                grad_budget = grad_ratio
                grad_available = -grad_ratio * budget / available
                grad_ends[index] = grad_available
                grad_start -= grad_available
            if from_budget:
                grad_budget += grad_executed
            elif rem_positive:
                grad_remaining[instance] += grad_executed
            if not budget_clipped:
                grad_budgets[index] = grad_budget
            if not from_slot:
                grad_previous += grad_start
        return energy, grad_ends, grad_budgets


def evaluate_schedule(schedule: StaticSchedule, processor: ProcessorModel,
                      actual_cycles: Optional[Dict[str, float]] = None) -> AnalyticOutcome:
    """Evaluate a :class:`StaticSchedule` (convenience wrapper over :func:`evaluate_vectors`)."""
    return evaluate_vectors(
        schedule.expansion,
        schedule.end_times(),
        schedule.wc_budgets(),
        processor,
        actual_cycles,
    )


def average_case_energy(schedule: StaticSchedule, processor: ProcessorModel) -> float:
    """Predicted energy of one hyperperiod when every job takes its ACEC."""
    return evaluate_schedule(schedule, processor).energy


def worst_case_energy(schedule: StaticSchedule, processor: ProcessorModel) -> float:
    """Predicted energy of one hyperperiod when every job takes its WCEC."""
    actual = {inst.key: inst.wcec for inst in schedule.expansion.instances}
    return evaluate_schedule(schedule, processor, actual).energy

"""ACS — the paper's average-case-aware offline voltage scheduler.

ACS ("Average-Case Scheduling" in the paper's experimental section) chooses,
for every sub-instance of the fully preemptive schedule, a planned end-time
and a worst-case cycle budget such that

* the schedule remains feasible when every job takes its worst-case execution
  cycles (WCEC), and
* the energy consumed when jobs take their *average-case* execution cycles
  (ACEC) — the common situation at runtime — is minimised under the greedy
  slack-reclamation DVS policy.

The optimisation is the reduced NLP of :mod:`repro.offline.nlp` (see that
module for the mapping to the paper's Section 3.2 formulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.preemption import FullyPreemptiveSchedule
from .base import VoltageScheduler
from .batched_solver import NLPSolveTask, run_program
from .nlp import ReducedNLP, SolverOptions
from .schedule import StaticSchedule

__all__ = ["ACSScheduler"]


@dataclass
class ACSScheduler(VoltageScheduler):
    """Average-case-aware static voltage scheduler (the paper's contribution).

    Parameters
    ----------
    processor:
        The DVS processor model.
    options:
        Solver options forwarded to :class:`~repro.offline.nlp.ReducedNLP`.
    seed_with_wcs:
        When true (default) the solver is warm-started from the WCS solution,
        which makes the optimisation both faster and never worse than the
        baseline in terms of the average-case objective.
    """

    options: SolverOptions = field(default_factory=SolverOptions)
    seed_with_wcs: bool = True

    @property
    def name(self) -> str:
        return "acs"

    def schedule_expansion(self, expansion: FullyPreemptiveSchedule) -> StaticSchedule:
        """Solve the average-case NLP from several starting points and keep the best.

        SLSQP can stall on the piecewise-smooth objective depending on where it
        starts, so the solver is run from the default heuristic guess and — when
        ``seed_with_wcs`` is on — from the WCS solution.  The WCS schedule
        itself is also kept as a candidate (it is feasible for the ACS problem
        by construction), which guarantees that ACS is never worse than the
        baseline on the average-case objective.
        """
        return run_program(self.schedule_program(expansion))

    def schedule_program(self, expansion: FullyPreemptiveSchedule):
        """:meth:`schedule_expansion` as a batchable wave program.

        Wave 1 solves the heuristically seeded ACS problem and the WCS warm
        start together; wave 2 re-solves ACS from the WCS solution.  Driven
        sequentially this performs the exact solve sequence documented above;
        driven by the batched planner the wave-1 WCS warm start meets the
        identical solve of any WCS program planned alongside and is solved once.
        """
        nlp = ReducedNLP(expansion, self.processor, workload_mode="acec", options=self.options)
        if not self.seed_with_wcs:
            (schedule,) = yield (NLPSolveTask(nlp),)
            candidates = [schedule]
        else:
            wcs_nlp = ReducedNLP(expansion, self.processor, workload_mode="wcec", options=self.options)
            plain, wcs_schedule = yield (NLPSolveTask(nlp), NLPSolveTask(wcs_nlp))
            wcs_vectors = nlp.pack(wcs_schedule.end_times(), wcs_schedule.wc_budgets())
            (seeded,) = yield (NLPSolveTask(nlp, x0=wcs_vectors),)
            candidates = [plain, seeded, StaticSchedule.from_vectors(
                expansion, wcs_schedule.end_times(), wcs_schedule.wc_budgets(),
                method="acs",
                objective_value=float(nlp.energy(wcs_vectors)),
                metadata={**wcs_schedule.metadata, "seed": "wcs-as-is"},
            )]
        best = min(candidates, key=lambda schedule: schedule.objective_value)
        best.validate(self.processor)
        return best

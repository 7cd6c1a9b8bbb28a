"""Stochastic ACS: probability-weighted objective (Section 3.2, optional extension).

The paper notes that "the probability weighted workload can be used in the
objective function if the probability density function is known", and falls
back to the ACEC as a good-enough approximation.  This module implements the
full option: the objective becomes the *expected* runtime energy over a set of
sampled workload scenarios (sample-average approximation), each evaluated with
the same greedy-reclamation propagation used by the plain ACS objective.

For symmetric distributions (the paper's truncated normal) the ACEC
approximation is excellent and the two schedulers produce nearly identical
schedules; for skewed distributions — e.g. the bimodal "usually short,
occasionally worst-case" pattern the abstract motivates — the stochastic
variant can place end-times noticeably better.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.preemption import FullyPreemptiveSchedule
from ..core.errors import SchedulingError
from ..workloads.distributions import NormalWorkload, WorkloadModel
from .base import VoltageScheduler
from .batched_solver import NLPSolveTask, run_program
from .nlp import ReducedNLP, SolverOptions
from .schedule import StaticSchedule

__all__ = ["StochasticACSScheduler", "sample_scenarios"]


def sample_scenarios(expansion: FullyPreemptiveSchedule, workload: WorkloadModel,
                     n_scenarios: int, seed: Optional[int] = None) -> List[Tuple[float, Dict[str, float]]]:
    """Draw equally weighted workload scenarios for every job of the expansion."""
    if n_scenarios <= 0:
        raise SchedulingError("n_scenarios must be positive")
    rng = np.random.default_rng(seed)
    scenarios: List[Tuple[float, Dict[str, float]]] = []
    for _ in range(n_scenarios):
        actual = {
            instance.key: float(min(max(workload.sample(rng, instance.task), 0.0), instance.wcec))
            for instance in expansion.instances
        }
        scenarios.append((1.0, actual))
    return scenarios


@dataclass
class StochasticACSScheduler(VoltageScheduler):
    """ACS with a sample-average (probability-weighted) objective.

    Parameters
    ----------
    processor:
        The DVS processor model.
    workload:
        The workload distribution to sample scenarios from (defaults to the
        paper's truncated normal).
    n_scenarios:
        Number of sampled scenarios in the objective.  A handful is enough in
        practice; the cost of one objective evaluation grows linearly with it.
    seed:
        Seed of the scenario sampler (fixed scenarios keep the NLP deterministic).
    options:
        Solver options.
    """

    workload: WorkloadModel = field(default_factory=NormalWorkload)
    n_scenarios: int = 8
    seed: Optional[int] = 20050307
    options: SolverOptions = field(default_factory=SolverOptions)

    @property
    def name(self) -> str:
        return "acs_stochastic"

    def schedule_expansion(self, expansion: FullyPreemptiveSchedule) -> StaticSchedule:
        return run_program(self.schedule_program(expansion))

    def schedule_program(self, expansion: FullyPreemptiveSchedule):
        """The sample-average solve sequence as a batchable wave program.

        Mirrors :meth:`ACSScheduler.schedule_program`: wave 1 pairs the
        scenario-weighted solve with the WCS warm start (the WCS problem is
        the same reduced NLP :class:`~repro.offline.wcs.WCSScheduler` solves),
        wave 2 re-solves the weighted objective from the WCS solution.
        """
        scenarios = sample_scenarios(expansion, self.workload, self.n_scenarios, self.seed)
        nlp = ReducedNLP(expansion, self.processor, workload_mode="acec",
                         options=self.options, scenarios=scenarios)
        # Warm start from the WCS solution and keep it as a feasible candidate,
        # mirroring ACSScheduler's multi-seed strategy.
        wcs_nlp = ReducedNLP(expansion, self.processor, workload_mode="wcec", options=self.options)
        plain, wcs_schedule = yield (NLPSolveTask(nlp), NLPSolveTask(wcs_nlp))
        wcs_vectors = nlp.pack(wcs_schedule.end_times(), wcs_schedule.wc_budgets())
        (seeded,) = yield (NLPSolveTask(nlp, x0=wcs_vectors),)
        candidates = [plain, seeded, StaticSchedule.from_vectors(
            expansion, wcs_schedule.end_times(), wcs_schedule.wc_budgets(),
            method=self.name,
            objective_value=float(nlp.energy(wcs_vectors)),
            metadata={**wcs_schedule.metadata, "seed": "wcs-as-is"},
        )]
        best = min(candidates, key=lambda schedule: schedule.objective_value)
        best.validate(self.processor)
        best.metadata.setdefault("n_scenarios", self.n_scenarios)
        best.method = self.name
        return best

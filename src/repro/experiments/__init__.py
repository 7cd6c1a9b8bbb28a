"""Experiment harnesses: the ACS-vs-WCS comparison runner, seeding and Table 1.

The Figure 6 sweeps and the multicore scalability grid are scenario documents
run by :class:`repro.scenarios.ScenarioEngine` on top of this harness (see
``examples/scenarios/`` and ``docs/scenarios.md``).
"""

from .harness import (
    ComparisonConfig,
    ComparisonJob,
    ComparisonResult,
    MethodOutcome,
    compare_schedulers,
    default_schedulers,
    make_schedulers,
    random_comparison_job,
    run_comparisons,
    scheduler_names,
)
from .motivation import MotivationConfig, MotivationResult, motivation_taskset, run_motivation
from .seeding import derive_rng, derive_seed, seed_sequence

__all__ = [
    "ComparisonConfig",
    "ComparisonJob",
    "ComparisonResult",
    "MethodOutcome",
    "compare_schedulers",
    "default_schedulers",
    "make_schedulers",
    "random_comparison_job",
    "run_comparisons",
    "scheduler_names",
    "derive_seed",
    "derive_rng",
    "seed_sequence",
    "MotivationConfig",
    "MotivationResult",
    "motivation_taskset",
    "run_motivation",
]

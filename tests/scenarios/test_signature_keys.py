"""Golden store keys: a refactor may not move a stored result or a memoized solve.

Both stores are content-addressed: a comparison unit's payload lives under
``signature_key(_comparison_signature(job))`` and an NLP solve under
``signature_key(solve_signature(task))``.  If either key drifts, every
existing result store and solve memo silently goes cold, so the hex digests
below are pinned: changing one is a store-format change and must say so.
"""

from repro.analysis.preemption import expand_fully_preemptive
from repro.core.task import Task
from repro.core.taskset import TaskSet
from repro.experiments.harness import ComparisonConfig, ComparisonJob, random_comparison_job
from repro.offline.batched_solver import NLPSolveTask, solve_signature
from repro.offline.nlp import ReducedNLP
from repro.power.presets import cmos_processor, ideal_processor
from repro.scenarios.engine import _comparison_signature
from repro.scenarios.store import signature_key
from repro.workloads.random_tasksets import RandomTaskSetConfig

PROCESSOR = ideal_processor(fmax=1000.0)
TASKSET = TaskSet([
    Task("A", period=10, wcec=3000, acec=1500, bcec=600),
    Task("B", period=20, wcec=8000, acec=4400, bcec=800),
], name="two-tasks")


def test_explicit_comparison_unit_key():
    job = ComparisonJob(processor=PROCESSOR, taskset=TASKSET,
                        config=ComparisonConfig(n_hyperperiods=4, seed=7))
    assert signature_key(_comparison_signature(job)) == (
        "4b86eb6713694c20baa37125d26a72ba52def8c63e192ad7abdabfb46474d667")


def test_random_comparison_unit_key():
    job = random_comparison_job(
        PROCESSOR, RandomTaskSetConfig(n_tasks=3, periods=(10.0, 20.0, 40.0)),
        ComparisonConfig(n_hyperperiods=10, seed=12345), 0, 1)
    assert signature_key(_comparison_signature(job)) == (
        "9d76a0c62278fa59a9a0d82f081de4e9ccdc444911fa49d803edd6f1be8e4b70")


def test_solve_keys():
    expansion = expand_fully_preemptive(TASKSET)
    nlp = ReducedNLP(expansion, PROCESSOR, workload_mode="acec")
    assert signature_key(solve_signature(NLPSolveTask(nlp))) == (
        "e7cd49c9969f41f826ad9138ad29ee3016593e21d2b7529580a5b74f5a2ab706")
    seeded = NLPSolveTask(nlp, x0=nlp.initial_guess())
    assert signature_key(solve_signature(seeded)) == (
        "7664be0056b3a658e2d58b0f6c5df5743a469f66095a793b995d541b45997e3f")
    cmos = ReducedNLP(expansion, cmos_processor(fmax=1000.0), workload_mode="wcec")
    assert signature_key(solve_signature(NLPSolveTask(cmos))) == (
        "e53f045afa76470b09a4604f33a6f96786d4e5340e06d175369c7e0d0e899c1d")

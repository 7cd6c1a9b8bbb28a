"""Golden store keys: a refactor may not move a stored result or a memoized solve.

Both stores are content-addressed: a comparison unit's payload lives under
``signature_key(_comparison_signature(job))`` and an NLP solve under
``signature_key(solve_signature(task))``.  If either key drifts, every
existing result store and solve memo silently goes cold, so the hex digests
below are pinned: changing one is a store-format change and must say so.

History: store format 3 (the exact-gradient planner) moved every digest;
the solve keys also lost the removed ``vectorized_jacobian`` solver option.
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
        "55d4a585a1fd1f0c78e45dbcce889e9db68726b2528ef83357820a2de292e60d")


def test_random_comparison_unit_key():
    job = random_comparison_job(
        PROCESSOR, RandomTaskSetConfig(n_tasks=3, periods=(10.0, 20.0, 40.0)),
        ComparisonConfig(n_hyperperiods=10, seed=12345), 0, 1)
    assert signature_key(_comparison_signature(job)) == (
        "4e18fc49545074fa4b222f23b85c02535812db16ea568836f43ae2a2ab7916ba")


def test_solve_keys():
    expansion = expand_fully_preemptive(TASKSET)
    nlp = ReducedNLP(expansion, PROCESSOR, workload_mode="acec")
    assert signature_key(solve_signature(NLPSolveTask(nlp))) == (
        "318a4d2fc1a9784382571d12505a01b02ceb2e3e3f498e246d67b264165e8baf")
    seeded = NLPSolveTask(nlp, x0=nlp.initial_guess())
    assert signature_key(solve_signature(seeded)) == (
        "d111689a15107918cd62788e6cad1075d262fa5394b4c6b33afc647356f2ecd4")
    cmos = ReducedNLP(expansion, cmos_processor(fmax=1000.0), workload_mode="wcec")
    assert signature_key(solve_signature(NLPSolveTask(cmos))) == (
        "6b6f44535e1114a921828c7b0af8c000b26a3fc55c335dff6f260af05a30dd7a")

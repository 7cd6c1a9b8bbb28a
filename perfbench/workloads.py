"""Seeded scenario-document generators, one per workload.

The program under test only ever sees the documents built here; every
document is a pure function of ``(workload, seed, index)``, so the same seed
replays the same inputs.  Why each workload exists, and which layer it loads
or bypasses, is recorded in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

Document = Dict[str, Any]

#: Divisor-friendly period pool: hyperperiods stay short, so the NLPs stay small.
PERIODS = [10, 20, 40]

#: Full speed of the paper's simplified processor in cycles per ms.
FMAX = 1000.0


def _rng(workload: str, seed: int, *path: int) -> random.Random:
    # String seeding is hashed with SHA-512, so streams are stable across runs.
    return random.Random(":".join([workload, str(seed), *map(str, path)]))


#: How the explicit task sets split their load over :data:`PERIODS`; document
#: ``i`` uses split ``i % 3``.  The ACS saving depends strongly on the split,
#: so the seed varies only the runs' random draws, keeping the saving
#: comparable across seeds.
LOAD_SPLITS = [(1, 1, 1), (2, 1, 1), (1, 1, 2)]


def _explicit_tasks(index: int, utilization: float = 0.7) -> List[Dict[str, Any]]:
    """Three tasks on :data:`PERIODS` whose worst case fills ``utilization`` at full speed."""
    split = LOAD_SPLITS[index % len(LOAD_SPLITS)]
    return [
        {"name": f"t{task}", "period": period,
         "wcec": round(utilization * weight / sum(split) * period * FMAX)}
        for task, (period, weight) in enumerate(zip(PERIODS, split))
    ]


#: The Figure-6a matrix (``taskset.n_tasks`` x ``taskset.ratio``), cut to divisor-friendly sizes.
FIGURE6A_CELLS = [(n_tasks, ratio) for n_tasks in (2, 3, 4) for ratio in (0.1, 0.5, 0.9)]


#: Task sets per Figure-6a cell in the sweep-cold pool.
SWEEP_POOL = 10


def sweep_cold(seed: int, index: int) -> Document:
    """One cell of the Figure-6a matrix per document, cells in turn, each on a cold store.

    The generator seeds come from a fixed pool of ``SWEEP_POOL`` task sets
    per cell, cycled; the seed draws each document's utilization.  Planning
    cost is set mostly by the jobs per hyperperiod, which the generator seed
    fixes through the drawn periods, and it varies 15-fold between task sets.
    With a fresh random pool per seed, runs of the same code differed by
    about 8% on content alone; the fixed pool keeps the work per run
    comparable across seeds, while the seeded utilization rescales every
    task and so changes every plan.
    """
    n_tasks, ratio = FIGURE6A_CELLS[index % len(FIGURE6A_CELLS)]
    slot = index % (len(FIGURE6A_CELLS) * SWEEP_POOL)
    utilization = round(_rng("sweep-cold", seed, index).uniform(0.65, 0.75), 4)
    return {
        "kind": "comparison",
        "name": f"sweep-cold-{index}",
        "taskset": {"source": "random", "utilization": utilization, "periods": PERIODS,
                    "n_tasks": n_tasks, "ratio": ratio},
        "simulation": {"hyperperiods": 10, "repetitions": 1,
                       "seed": _rng("sweep-cold-pool", 0, slot).randrange(2**31)},
    }


def sporadic_traced(seed: int, index: int) -> Document:
    """The ``sporadic.toml`` shape scaled to 100 traced, jittered task-set runs."""
    rng = _rng("sporadic-traced", seed, index)
    return {
        "kind": "comparison",
        "name": f"sporadic-traced-{index}",
        "taskset": {"source": "explicit", "name": f"sporadic-{index}", "ratio": 0.5,
                    "tasks": _explicit_tasks(index)},
        "power": {"model": "ideal", "fmax": FMAX},
        "arrivals": {"model": "sporadic", "max_jitter": 1.5},
        "simulation": {"hyperperiods": 4, "seed": rng.randrange(2**31), "repetitions": 100,
                       "trace": True},
    }


#: Hot units of the serve mix: each request carries one seed from each pool.
SERVE_HOT_POOL = 3


def serve_mixed(seed: int, client: int, round_index: int) -> Document:
    """One request of the serve mix.

    Units are keyed by ``(seed value, matrix index)``, so the four seeds of
    the ``simulation.seed`` axis give each request a fixed overlap pattern:
    two hot units drawn from small pools (replayed from the store once
    computed), one unit shared with the other client's request of the same
    round (computed once, coalesced while in flight) and one fresh unit.
    Every request shares one task set, so after its first solves the
    planning of every unit is a solve-memo hit in the server's store.
    """
    rng = _rng("serve-mixed", seed, client, round_index)
    base = _rng("serve-mixed", seed)
    hot_a = [base.randrange(2**31) for _ in range(SERVE_HOT_POOL)]
    hot_b = [base.randrange(2**31) for _ in range(SERVE_HOT_POOL)]
    shared = _rng("serve-mixed", seed, -1, round_index).randrange(2**31)
    return {
        "kind": "comparison",
        "name": "serve-mixed",
        "taskset": {"source": "explicit", "name": "serve", "ratio": 0.5,
                    "tasks": _explicit_tasks(0)},
        "power": {"model": "ideal", "fmax": FMAX},
        "simulation": {"hyperperiods": 20, "repetitions": 1},
        "matrix": {"simulation.seed": [rng.choice(hot_a), rng.choice(hot_b), shared,
                                       rng.randrange(2**31)]},
    }


@dataclass(frozen=True)
class Workload:
    """How one workload is generated and sized.

    ``saving_docs`` fixes the request prefix ``acs_saving_pct`` averages
    over, so the figure is deterministic per seed; every run completes at
    least that many requests.  ``traced_docs`` is the fixed work of a
    traced run, so per-layer counts repeat exactly for a seed.
    """

    name: str
    saving_docs: int
    traced_docs: int
    make: Callable[..., Document]
    served: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("sweep-cold", saving_docs=180, traced_docs=45, make=sweep_cold),
        Workload("sporadic-traced", saving_docs=3, traced_docs=2, make=sporadic_traced),
        Workload("serve-mixed", saving_docs=100, traced_docs=300, make=serve_mixed, served=True),
    )
}

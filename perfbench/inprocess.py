"""In-process workloads: ``ScenarioEngine.run`` over a fresh ``ResultStore`` per document."""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.harness import ComparisonJob, compare_schedulers, make_schedulers
from repro.reporting.serialization import comparison_result_to_dict
from repro.scenarios.engine import ScenarioEngine, ScenarioResult
from repro.scenarios.loader import ScenarioLoader
from repro.scenarios.store import ResultStore
from repro.telemetry.core import Telemetry, using

import hostspeed
import layers
import stats
from workloads import Workload

#: Units per run recomputed through the reference path (outside the timed region).
VERIFY_UNITS = 3

#: Setups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

# Traced documents fall back to the compiled loop by design; the harness's
# once-per-sweep warning about it is expected here, not news.
warnings.filterwarnings("ignore", message=".*batched engine fell back.*", category=RuntimeWarning)


class TimedStore(ResultStore):
    """A result store that notes when each unit payload lands and whether it missed a deadline."""

    def __init__(self, root: Path) -> None:
        super().__init__(root)
        self.delivered: List[float] = []
        self.failed = 0

    def put(self, key: str, payload: Any, **kwargs: Any) -> Path:
        path = super().put(key, payload, **kwargs)
        self.delivered.append(perf_counter())
        if any(method["deadline_misses"] for method in payload["methods"].values()):
            self.failed += 1
        return path


@dataclass
class Tally:
    """What a loop delivered, per document."""

    elapsed: List[float] = field(default_factory=list)
    #: Host-speed sample position of each document (see ``hostspeed``).
    positions: List[int] = field(default_factory=list)
    delivered: List[List[float]] = field(default_factory=list)
    hyperperiods: List[int] = field(default_factory=list)
    errors: stats.ErrorTally = field(default_factory=stats.ErrorTally)
    saving: List[float] = field(default_factory=list)
    checks: List[Tuple[ComparisonJob, Dict[str, Any]]] = field(default_factory=list)

    @property
    def units(self) -> int:
        return sum(len(moments) for moments in self.delivered)


def _unit_savings(result: ScenarioResult) -> List[float]:
    """ACS improvement over WCS, one entry per unit (points average their units).

    Only units under the paper's online policy (greedy slack reclamation)
    count: replaying an average-case plan without reclamation (``static``)
    is an ablation that is meant to lose to WCS.
    """
    savings: List[float] = []
    for point in result.points:
        if point["coords"].get("online.policy", result.spec.online.policy) == "greedy":
            savings += [point["methods"]["acs"]["mean_improvement_percent"]] * point["jobs"]
    return savings


class Runner:
    """Drives one workload's documents through the engine, one fresh store each."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.loader = ScenarioLoader()
        self._stores = 0

    def run_document(self, index: int, tally: Tally, *, verify: bool = False,
                     tracer: Optional[layers.LayerTracer] = None,
                     telemetry: Optional[Telemetry] = None) -> None:
        """Run document ``index`` on a fresh store and add what it delivered to ``tally``."""
        spec = self.loader.from_document(self.workload.make(self.seed, index))
        self._stores += 1
        store = TimedStore(self.workdir / f"store-{self._stores}")
        engine = ScenarioEngine(store)
        if tracer is None:
            start = perf_counter()
            result = engine.run(spec)
            elapsed = perf_counter() - start
        else:
            with using(telemetry), tracer.installed():
                start = perf_counter()
                result = engine.run(spec)
                elapsed = perf_counter() - start
        units = result.computed + result.skipped
        tally.elapsed.append(elapsed)
        tally.delivered.append([moment - start for moment in store.delivered])
        tally.hyperperiods.append(units * len(spec.offline.methods) * spec.simulation.hyperperiods)
        tally.errors.add_units(units, store.failed)
        if index < self.workload.saving_docs:
            tally.saving += _unit_savings(result)
        if verify:
            compiled = engine.compile(spec)
            keys = random.Random(f"verify:{self.seed}:{index}").sample(
                sorted(compiled.units), min(VERIFY_UNITS, len(compiled.units)))
            tally.checks += [(compiled.units[key], store.get(key)) for key in keys]
        shutil.rmtree(store.root, ignore_errors=True)

    def _verified_documents(self, count: int) -> List[int]:
        """Document indices whose units are sampled for the reference check."""
        return random.Random(f"verify:{self.seed}").sample(range(count), min(VERIFY_UNITS, count))

    def warm_up(self) -> None:
        """Run document 0 once, untimed, so lazy imports and first-use allocations finish first.

        Every document runs on a fresh store, so the timed run of document 0
        still plans and simulates from cold.
        """
        self.run_document(0, Tally())

    def measure(self, seconds: float, reference: hostspeed.Reference) -> Tally:
        """Untraced loop: run documents until ``seconds`` and the saving prefix are done.

        ``reference`` samples the host speed between documents.
        """
        tally = Tally()
        verify = self._verified_documents(self.workload.saving_docs)
        index = 0
        started = perf_counter()
        while index < self.workload.saving_docs or perf_counter() - started < seconds:
            reference.keep_up()
            tally.positions.append(reference.position)
            self.run_document(index, tally, verify=index in verify)
            index += 1
        reference.keep_up()
        return tally

    def measure_traced(self) -> Tuple[Dict[str, Dict[str, float]], Tally]:
        """Fixed work, each document run untraced then traced: per-layer metrics.

        Returns the metrics and the untraced tally, which also carries the
        traced pass's failures and the units sampled for verification.
        """
        tracer = layers.LayerTracer()
        telemetry = Telemetry()
        plain, traced = Tally(), Tally()
        verify = self._verified_documents(self.workload.traced_docs)
        for index in range(self.workload.traced_docs):
            self.run_document(index, plain, verify=index in verify)
            self.run_document(index, traced, tracer=tracer, telemetry=telemetry)
        plain.errors.add_units(traced.errors.attempted, traced.errors.failed)
        # Documents alternate between the passes, so drift in host speed cancels.
        overhead_pct = (sum(traced.elapsed) / sum(plain.elapsed) - 1.0) * 100.0
        return per_layer(tracer, telemetry, sum(traced.elapsed), overhead_pct), plain

    def setup_seconds(self, reference: hostspeed.Reference) -> List[Tuple[float, int]]:
        """Fresh-process setups: imports, document load and compile, store creation.

        ``reference`` samples the host speed before each setup and after the
        last; returns each setup's wall seconds and sample position.
        """
        probe = Path(__file__).with_name("probe.py")
        times = []
        for attempt in range(SETUP_REPEATS):
            reference.keep_up()
            position = reference.position
            store = self.workdir / f"probe-{attempt}"
            start = perf_counter()
            with subprocess.Popen(
                    [sys.executable, str(probe), self.workload.name, str(self.seed), str(store)],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as process:
                ready = process.stdout.readline().strip()
                times.append((perf_counter() - start, position))
                _, error = process.communicate(timeout=60)
            if ready != "ready" or process.returncode != 0:
                raise RuntimeError(f"setup probe failed ({process.returncode}): {error.strip()}")
            shutil.rmtree(store, ignore_errors=True)
        reference.keep_up()
        return times


def reference_mismatches(checks: List[Tuple[ComparisonJob, Dict[str, Any]]]) -> List[str]:
    """Recompute sampled units by sequential planning plus the reference simulator.

    Energies must match the program's payloads bit for bit; one message per
    unit that does not.
    """
    mismatches = []
    for job, payload in checks:
        config = replace(job.config, fast_path=False, batched=False, batched_planning=False)
        result = compare_schedulers(job.resolve_taskset(), job.processor,
                                    make_schedulers(job.schedulers, job.processor), config)
        expected = comparison_result_to_dict(result)["methods"]
        differing = [
            f"{method}.{name}: {payload['methods'][method][name]!r} != reference {values[name]!r}"
            for method, values in expected.items()
            for name in ("mean_energy_per_hyperperiod", "total_energy")
            if payload["methods"][method][name] != values[name]
        ]
        if differing:
            mismatches.append(f"unit of {job.resolve_taskset().name}: " + "; ".join(differing))
    return mismatches


def per_layer(tracer: layers.LayerTracer, telemetry: Telemetry, traced_s: float,
              overhead_pct: float) -> Dict[str, Dict[str, float]]:
    """Per-layer metrics of a traced pass; times are raw host seconds."""
    counters = telemetry.counters
    lookups = counters.get("solve_memo.hit", 0) + counters.get("solve_memo.miss", 0)
    solves = counters.get("solve_memo.computed", 0)
    store_reads = counters.get("result_store.hit", 0) + counters.get("result_store.miss", 0)
    widths = telemetry.observations.get("sim.soa_width", [])
    metric = stats.metric
    return {
        "offline.plan_s": metric(tracer.seconds(layers.PLAN), "s"),
        "offline.solves": metric(solves, "count"),
        "offline.objective_evals": metric(counters.get("nlp.objective_evaluations", 0), "count"),
        "offline.jacobian_evals": metric(counters.get("nlp.jacobian_evaluations", 0), "count"),
        "offline.memo_hit_ratio": metric(1.0 - stats.share(solves, lookups) if lookups else 0.0,
                                         "ratio"),
        "runtime.simulate_s": metric(tracer.seconds(layers.SIMULATE), "s"),
        "runtime.batched_units": metric(counters.get("sim.batched_units", 0), "count"),
        "runtime.fallback_units": metric(sum(count for name, count in counters.items()
                                             if name.startswith("sim.batch_fallback.")), "count"),
        "runtime.soa_width_mean": metric(sum(widths) / len(widths) if widths else 0.0, "units"),
        "runtime.trace_events": metric(tracer.trace_events, "count"),
        "reporting.encode_s": metric(tracer.seconds(layers.ENCODE), "s"),
        "scenarios.compile_s": metric(tracer.seconds(layers.COMPILE), "s"),
        "scenarios.store_put_s": metric(tracer.seconds(layers.STORE_PUT), "s"),
        "scenarios.store_get_s": metric(tracer.seconds(layers.STORE_GET), "s"),
        "scenarios.store_bytes": metric(tracer.store_bytes, "bytes"),
        "scenarios.store_hit_ratio": metric(
            stats.share(counters.get("result_store.hit", 0), store_reads), "ratio"),
        "experiments.harness_self_s": metric(tracer.self_time.get(layers.HARNESS, 0.0), "s"),
        "telemetry.traced_wall_s": metric(traced_s, "s"),
        "telemetry.overhead_pct": metric(overhead_pct, "%"),
    }

"""Timing wrappers around each layer's public functions, for the traced run.

The wrappers live here, not in the program: :class:`LayerTracer` patches the
module attributes the program calls through, records wall time and self time
(wall time minus the wrapped calls nested inside it) per layer, and restores
every original on exit.  Combined with the program's own telemetry counters
(``repro.telemetry``), this yields the per-layer metrics.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.experiments import harness
from repro.reporting import serialization
from repro.runtime import simulator
from repro.scenarios import engine
from repro.scenarios.store import ResultStore

PLAN = "offline.plan"
SIMULATE = "runtime.simulate"
ENCODE = "reporting.encode"
COMPILE = "scenarios.compile"
STORE_PUT = "scenarios.store_put"
STORE_GET = "scenarios.store_get"
HARNESS = "experiments.harness"


class LayerTracer:
    """Per-layer wall and self time, nesting-aware per thread."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.store_bytes = 0
        self.trace_events = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- frames ---------------------------------------------------------

    @contextmanager
    def frame(self, name: str) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        stack.append(0.0)  # time spent in wrapped calls nested in this one
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            nested = stack.pop()
            if stack:
                stack[-1] += elapsed
            with self._lock:
                self.total[name] = self.total.get(name, 0.0) + elapsed
                self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - nested

    def _wrap(self, function: Callable, name: str) -> Callable:
        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.frame(name):
                return function(*args, **kwargs)

        return wrapper

    def _wrap_iter(self, function: Callable, name: str) -> Callable:
        """Time a generator function: each step counts, the consumer's work between steps does not."""
        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = function(*args, **kwargs)
            while True:
                with self.frame(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item

        return wrapper

    def _wrap_put(self, function: Callable) -> Callable:
        @functools.wraps(function)
        def put(store: ResultStore, *args: Any, **kwargs: Any) -> Any:
            with self.frame(STORE_PUT):
                path = function(store, *args, **kwargs)
            size = path.stat().st_size
            with self._lock:
                self.store_bytes += size
            return path

        return put

    def _wrap_encode(self, function: Callable) -> Callable:
        @functools.wraps(function)
        def encode(result: Any) -> Any:
            with self.frame(ENCODE):
                payload = function(result)
            events = sum(len(outcome.simulation.trace) for outcome in result.outcomes.values()
                         if outcome.simulation.trace is not None)
            with self._lock:
                self.trace_events += events
            return payload

        return encode

    # -- installation ---------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Callable) -> None:
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Patch every layer boundary for the duration of the block."""
        try:
            # The harness and the engine bind these names at import time, so
            # the wrappers go where the callers look them up.
            self._patch(harness, "plan_expansions", self._wrap(harness.plan_expansions, PLAN))
            self._patch(harness, "simulate_batch", self._wrap(harness.simulate_batch, SIMULATE))
            self._patch(simulator, "run_compiled", self._wrap(simulator.run_compiled, SIMULATE))
            self._patch(engine, "iter_comparisons",
                        self._wrap_iter(engine.iter_comparisons, HARNESS))
            self._patch(serialization, "comparison_result_to_dict",
                        self._wrap_encode(serialization.comparison_result_to_dict))
            self._patch(engine.ScenarioEngine, "compile",
                        self._wrap(engine.ScenarioEngine.compile, COMPILE))
            self._patch(ResultStore, "put", self._wrap_put(ResultStore.put))
            self._patch(ResultStore, "get", self._wrap(ResultStore.get, STORE_GET))
            yield self
        finally:
            while self._patched:
                owner, attribute, original = self._patched.pop()
                setattr(owner, attribute, original)

    def seconds(self, name: str) -> float:
        return self.total.get(name, 0.0)

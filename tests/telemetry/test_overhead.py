"""Telemetry must cost nothing when it is off (the default).

Mirrors ``tests/runtime/test_trace_overhead.py``: every span class the
collector can construct is replaced with a raising constructor, and a
telemetry-off scenario run of the full pipeline (compile → plan → batched
simulate → aggregate) must still complete with bitwise-identical results — while a
telemetry-on run must trip the guard.

``Stopwatch`` is deliberately *excluded* from the tripwire list: the
``stage()`` sites (one per run, never per unit or per step) return a bare
two-slot stopwatch on the disabled path so ``elapsed_seconds`` keeps
working.  That is one small allocation per pipeline run, not a hot-loop
cost.
"""

import pytest

from repro.reporting.serialization import scenario_result_to_dict
from repro.scenarios import ScenarioEngine, ScenarioSpec
from repro.telemetry import Telemetry, using

#: Every class the collector allocates on the *enabled* path.
SPAN_CLASS_NAMES = ("Span", "SpanHandle")

TINY_SWEEP = ScenarioSpec.from_dict({
    "kind": "comparison",
    "name": "tiny-sweep",
    "taskset": {"source": "random", "n_tasks": 2, "periods": [10.0, 20.0]},
    "simulation": {"hyperperiods": 2, "repetitions": 1, "engine": "batched"},
})


def run_sweep(spec):
    return ScenarioEngine().run(spec)


class _Tripwire:
    def __init__(self, name):
        self.name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError(
            f"{self.name} was constructed although telemetry is disabled")


def _arm_tripwires(monkeypatch):
    import repro.telemetry.core as core

    for name in SPAN_CLASS_NAMES:
        monkeypatch.setattr(core, name, _Tripwire(f"repro.telemetry.core.{name}"))


def _normalised(result):
    data = scenario_result_to_dict(result)
    data.pop("elapsed_seconds", None)
    return data


def test_telemetry_off_allocates_no_span_objects(monkeypatch):
    baseline = run_sweep(TINY_SWEEP)
    _arm_tripwires(monkeypatch)
    guarded = run_sweep(TINY_SWEEP)
    # Bitwise-identical: the disabled path may not perturb a single value.
    assert _normalised(guarded) == _normalised(baseline)


def test_tripwires_actually_cover_the_enabled_path(monkeypatch):
    """Sanity check on the guard itself: with telemetry ON the raisers fire."""
    _arm_tripwires(monkeypatch)
    with pytest.raises(AssertionError, match="constructed although"):
        with using(Telemetry()):
            run_sweep(TINY_SWEEP)


def test_telemetry_on_does_not_change_results():
    """Enabling telemetry observes the pipeline without steering it."""
    baseline = run_sweep(TINY_SWEEP)
    with using(Telemetry()) as telemetry:
        observed = run_sweep(TINY_SWEEP)
    assert _normalised(observed) == _normalised(baseline)
    assert any(span.name == "scenario.run" for span in telemetry.spans)


def test_tripwire_names_are_exhaustive():
    """Every class the collector module defines that records a span is on
    the tripwire list, so a new span type cannot dodge the guard."""
    import repro.telemetry.core as core

    span_like = [
        name for name in dir(core)
        if isinstance(getattr(core, name), type)
        and not name.startswith("_")  # _NullSpan is the shared never-allocated singleton
        and hasattr(getattr(core, name), "elapsed_seconds")
        and name != "Stopwatch"  # the documented stage() exclusion
    ]
    assert sorted(span_like) == sorted(SPAN_CLASS_NAMES)

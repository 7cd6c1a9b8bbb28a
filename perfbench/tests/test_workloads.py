"""Tiny-size smoke runs of every workload generator and correctness check."""

import copy
import dataclasses
from pathlib import Path

import pytest

import inprocess
import layers
import serve
import workloads
from repro.experiments import harness
from repro.scenarios.store import ResultStore

IN_PROCESS = [name for name, workload in workloads.WORKLOADS.items() if not workload.served]


def _tiny(workload: workloads.Workload) -> workloads.Workload:
    """The same generator with runs cut to two hyperperiods and at most two repetitions."""
    def make(*args):
        document = copy.deepcopy(workload.make(*args))
        simulation = document["simulation"]
        simulation["hyperperiods"] = 2
        simulation["repetitions"] = min(2, simulation.get("repetitions", 1))
        return document

    return dataclasses.replace(workload, make=make, saving_docs=1, traced_docs=1)


def test_documents_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS.values():
        args = (7, 1, 3) if workload.served else (7, 3)
        other = (8, 1, 3) if workload.served else (8, 3)
        assert workload.make(*args) == workload.make(*args)
        assert workload.make(*args) != workload.make(*other)


def test_serve_requests_overlap_by_design():
    first, twin = workloads.serve_mixed(1, 0, 5), workloads.serve_mixed(1, 1, 5)
    seeds, twin_seeds = first["matrix"]["simulation.seed"], twin["matrix"]["simulation.seed"]
    assert seeds[2] == twin_seeds[2]  # the round's shared unit
    assert seeds[3] != twin_seeds[3]  # each request's fresh unit


@pytest.mark.parametrize("name", IN_PROCESS)
def test_in_process_workload_runs_and_verifies(name, tmp_path):
    runner = inprocess.Runner(_tiny(workloads.WORKLOADS[name]), 3, tmp_path)
    tally = inprocess.Tally()
    runner.run_document(0, tally, verify=True)
    assert tally.units > 0 and len(tally.delivered) == len(tally.elapsed) == 1
    assert tally.errors.failed == 0
    assert tally.saving and tally.checks
    assert inprocess.reference_mismatches(tally.checks) == []


def test_reference_check_catches_a_wrong_energy(tmp_path):
    runner = inprocess.Runner(_tiny(workloads.WORKLOADS["sweep-cold"]), 3, tmp_path)
    tally = inprocess.Tally()
    runner.run_document(0, tally, verify=True)
    job, payload = tally.checks[0]
    payload = copy.deepcopy(payload)
    payload["methods"]["acs"]["total_energy"] *= 1.0 + 1e-12
    assert len(inprocess.reference_mismatches([(job, payload)])) == 1


def test_traced_run_reports_layers_and_restores_the_program(tmp_path):
    originals = (harness.plan_expansions, harness.simulate_batch, ResultStore.put)
    runner = inprocess.Runner(_tiny(workloads.WORKLOADS["sweep-cold"]), 3, tmp_path)
    metrics, tally = runner.measure_traced()
    assert (harness.plan_expansions, harness.simulate_batch, ResultStore.put) == originals
    assert metrics["offline.plan_s"]["value"] > 0
    assert metrics["runtime.simulate_s"]["value"] > 0
    assert metrics["offline.solves"]["value"] > 0
    assert 0 < metrics["experiments.harness_self_s"]["value"] < metrics["telemetry.traced_wall_s"]["value"]
    assert tally.errors.failed == 0


def test_layer_self_time_excludes_nested_calls():
    tracer = layers.LayerTracer()
    with tracer.frame("outer"):
        with tracer.frame("inner"):
            sum(range(10000))
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.total["outer"] - tracer.total["inner"])


def test_serve_workload_round_trip(tmp_path):
    workload = _tiny(workloads.WORKLOADS["serve-mixed"])
    root = Path(__file__).resolve().parents[2]
    with serve.Server(root, tmp_path / "store", tmp_path / "serve.log") as server:
        assert server.start() > 0
        loop = serve.ClosedLoop(workload, 3, server)
        loop.run(0.0, 1, max_rounds=2)
        assert len(loop.round_s) == 2
        counters = serve.server_counters(server)
    assert len(loop.requests) == 2 * serve.CLIENTS
    assert serve.tally_errors(loop.requests).failed == 0
    assert serve.points_mismatches(loop.requests, 3) == []
    assert counters["serve.units.computed"] > 0
    tampered = copy.deepcopy(loop.requests)
    for request in tampered:
        request.result["points"][0]["methods"]["acs"]["mean_improvement_percent"] += 1.0
    assert serve.points_mismatches(tampered, 3)

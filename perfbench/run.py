"""Repository benchmark: three seeded workloads over plan / simulate / store / serve.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
runs a fixed amount of work untraced and traced and prints the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``.  The last line
of standard output is one JSON object; the exit code is non-zero when any
output fails its correctness check.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _require_source_tree() -> None:
    """Refuse to run anywhere but a checkout: the program is built from ``src/``."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SOURCE}; run from a repository checkout")
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SOURCE}")


@dataclass
class Piece:
    """One document (in-process) or round (serve) of the measured work, in wall seconds."""

    wall_s: float
    scale: float
    units: int
    hyperperiods: int
    latencies: List[float]


def end_to_end(setup: List[Tuple[float, int]], setup_ref, work_ref, pieces: List[Piece],
               saving: List[float], rss: float, latency_name: str) -> dict:
    """The end-to-end metrics and their notes.

    Every time is scaled to the reference host speed (see ``hostspeed``)
    by the samples taken around it: each setup (given as wall seconds and
    sample position) by ``setup_ref``'s, each piece of work by ``work_ref``'s.
    """
    import stats

    setup_s = [seconds * setup_ref.local_scale(position) for seconds, position in setup]
    ref_s = sum(piece.wall_s * piece.scale for piece in pieces)
    wall_s = sum(piece.wall_s for piece in pieces)
    units = sum(piece.units for piece in pieces)
    hyperperiods = sum(piece.hyperperiods for piece in pieces)
    wall = [latency for piece in pieces for latency in piece.latencies]
    scaled = [latency * piece.scale for piece in pieces for latency in piece.latencies]
    p50, _ = stats.percentile(scaled, 50.0)
    p90, _ = stats.percentile(scaled, 90.0)
    metric = stats.metric
    return {
        "metrics": {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "units_per_s": metric(units / ref_s, "1/s"),
            "hyperperiods_per_s": metric(hyperperiods / ref_s, "1/s"),
            "request_p50_s": metric(p50, "s"),
            "request_p90_s": metric(p90, "s"),
            "acs_saving_pct": metric(sum(saving) / len(saving), "%"),
            "peak_rss_mb": metric(rss, "MiB"),
        },
        "notes": [stats.describe_latency(f"{latency_name}, reference speed", scaled),
                  stats.describe_latency(f"{latency_name}, wall", wall),
                  setup_ref.describe("setup"), work_ref.describe("measured work"),
                  f"# wall-clock: setup samples {[round(seconds, 4) for seconds, _ in setup]}, "
                  f"units_per_s {units / wall_s:.6g}, hyperperiods_per_s {hyperperiods / wall_s:.6g}"],
    }


def run_inprocess(workload, args, workdir: Path) -> dict:
    import hostspeed
    import inprocess
    import stats

    runner = inprocess.Runner(workload, args.seed, workdir)
    if args.trace:
        metrics, tally = runner.measure_traced()
        return {"metrics": metrics, "errors": tally.errors,
                "mismatches": inprocess.reference_mismatches(tally.checks)}
    setup_ref = hostspeed.Reference()
    setup = runner.setup_seconds(setup_ref)
    runner.warm_up()
    work_ref = hostspeed.Reference()
    tally = runner.measure(args.seconds, work_ref)
    pieces = [Piece(wall_s, work_ref.local_scale(position), len(moments), hyperperiods, moments)
              for wall_s, position, moments, hyperperiods
              in zip(tally.elapsed, tally.positions, tally.delivered, tally.hyperperiods)]
    outcome = end_to_end(setup, setup_ref, work_ref, pieces, tally.saving,
                         stats.peak_rss_mb(), "unit time-to-result")
    outcome["errors"] = tally.errors
    outcome["mismatches"] = inprocess.reference_mismatches(tally.checks)
    outcome["notes"].append(f"# {tally.units} units in {len(tally.elapsed)} documents, "
                            f"{sum(tally.elapsed):.3f} s of engine time")
    return outcome


def run_served(workload, args, workdir: Path) -> dict:
    import hostspeed
    import serve
    import stats

    rounds = workload.saving_docs // serve.CLIENTS
    if args.trace:
        loops = []
        for tag in ("plain", "traced"):
            server = serve.Server(ROOT, workdir / f"store-{tag}", workdir / f"serve-{tag}.log")
            with server:
                server.start()
                loop = serve.ClosedLoop(workload, args.seed, server)
                loop.run(args.seconds, rounds, max_rounds=workload.traced_docs // serve.CLIENTS)
                loops.append(loop)
                counters = serve.server_counters(server) if tag == "traced" else {}
        plain, traced = loops
        metrics = serve.server_layers(traced.requests, counters)
        metrics.update(serve.store_layers(workdir / "store-traced"))
        metrics["telemetry.traced_wall_s"] = stats.metric(sum(traced.round_s), "s")
        metrics["telemetry.overhead_pct"] = stats.metric(
            (sum(traced.round_s) / sum(plain.round_s) - 1.0) * 100.0, "%")
        return {"metrics": metrics, "errors": serve.tally_errors(plain.requests + traced.requests),
                "mismatches": serve.points_mismatches(traced.requests, args.seed)}

    setup_ref = hostspeed.Reference()
    setup, server = serve.boot_times(ROOT, workdir, setup_ref)
    with server:
        loop = serve.ClosedLoop(workload, args.seed, server)
        loop.run(args.seconds, rounds)
        rss = stats.process_peak_rss_mb(server.process.pid)
        counters = serve.server_counters(server)
    requests = loop.requests
    units = sum(map(serve.delivered_units, requests))
    sources = {name: counters.get(f"serve.units.{name}", 0)
               for name in ("computed", "deduped", "inflight_coalesced")}
    total = sum(sources.values())
    pieces = [Piece(wall_s, loop.reference.local_scale(position), 0, 0, [])
              for wall_s, position in zip(loop.round_s, loop.round_positions)]
    for request in requests:
        piece = pieces[request.round]
        piece.units += serve.delivered_units(request)
        piece.hyperperiods += serve.simulated_hyperperiods(request)
        if serve.served(request):
            piece.latencies.append(request.finished - request.submitted)
    outcome = end_to_end(setup, setup_ref, loop.reference, pieces,
                         serve.acs_saving(requests, workload.saving_docs), rss,
                         "request submit-to-result")
    outcome["errors"] = serve.tally_errors(requests)
    outcome["mismatches"] = serve.points_mismatches(requests, args.seed)
    outcome["notes"].append(
        f"# {len(requests)} requests, {units} units in {len(loop.round_s)} rounds, "
        f"{sum(loop.round_s):.3f} s; dedup sources: "
        + ", ".join(f"{name} {count} ({stats.share(count, total):.1%})"
                    for name, count in sources.items()))
    return outcome


def _finish(outcome: dict, declared: Dict[str, str], trace: int) -> int:
    """Print the notes and the result line; returns the exit code."""
    metrics = outcome["metrics"]
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    wrong_unit = sorted(name for name, entry in metrics.items() if entry["unit"] != declared[name])
    if wrong_unit:
        raise RuntimeError(f"metrics whose unit differs from BENCHMARK.json: {wrong_unit}")
    if not trace:
        missing = sorted(set(declared) - set(metrics))
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    # A per-layer metric a workload does not exercise reads 0: that layer
    # did no work in the measured process.
    metrics = {name: metrics.get(name, {"value": 0.0, "unit": unit})
               for name, unit in declared.items()}
    errors = outcome["errors"]
    mismatches = outcome["mismatches"]
    failed = errors.failed + len(mismatches)
    for note in outcome.get("notes", []):
        print(note)
    for message in mismatches:
        print(f"# MISMATCH {message}")
    print(f"# error_rate = {failed / max(1, errors.attempted):.6f} "
          f"({failed} of {errors.attempted} units failed)")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, errors.attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: List[str]) -> int:
    args = _parse(argv)
    _require_source_tree()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = contract["per_layer" if args.trace else "end_to_end"]
    declared = {entry["name"]: entry["unit"] for entry in section}

    workdir = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = run_served if workload.served else run_inprocess
        outcome = runner(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    return _finish(outcome, declared, args.trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

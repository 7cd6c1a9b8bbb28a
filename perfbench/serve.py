"""The serve workload: two closed-loop clients against a real ``repro serve`` process."""

from __future__ import annotations

import itertools
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.scenarios.engine import ScenarioEngine
from repro.scenarios.loader import ScenarioLoader
from repro.scenarios.store import MemoryStore
from repro.server import client
from repro.server.protocol import ServerRequestError

import hostspeed
import stats
from workloads import Workload

#: Client threads, and server worker processes: the machine's two cores.
CLIENTS = 2
SERVER_WORKERS = 2

#: Server boots timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Requests per run whose ``points`` are recomputed in-process.
VERIFY_REQUESTS = 3

#: Requests give up after this long; a hung server fails the run, it does not stall it.
REQUEST_TIMEOUT_S = 60.0

#: Seconds a run may spend past its nominal length to reach the minimum request count.
OVERRUN_LIMIT_S = 100.0


class Server:
    """A ``repro serve`` child process over its own store."""

    def __init__(self, root: Path, store: Path, log: Path) -> None:
        self.root = root
        self.store = store
        self.log = log
        self.process: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> float:
        """Boot the server; returns seconds from spawn until ``/healthz`` answers."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        start = perf_counter()
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--store", str(self.store),
                 "--port", "0", "--workers", str(SERVER_WORKERS)],
                cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log)
        ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
        line = self.process.stdout.readline().decode() if ready else ""
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r} {self.log.read_text()[-2000:]}")
        self.host, _, port = line.split()[2].rpartition(":")
        self.port = int(port)
        while True:
            try:
                client.health(self.host, self.port, timeout=5.0)
                return perf_counter() - start
            except OSError:
                if perf_counter() - start > 60.0:
                    raise

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill only if the drain hangs."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.process = None

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


@dataclass
class Request:
    client: int
    round: int
    document: Dict[str, Any]
    submitted: float = 0.0
    accepted: Optional[float] = None
    unit_events: List[float] = field(default_factory=list)
    finished: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    refused: Optional[str] = None


class ClosedLoop:
    """Two clients; each round both submit together, then wait for their result.

    Starting rounds together makes the unit shared within a round arrive
    while its twin is still in flight, so in-flight coalescing happens in
    every round instead of fading as the clients drift apart.
    """

    def __init__(self, workload: Workload, seed: int, server: Server) -> None:
        self.workload = workload
        self.seed = seed
        self.server = server
        self.requests: List[Request] = []
        #: Wall time of each round.
        self.round_s: List[float] = []
        #: Host speed, sampled between rounds while no request is in flight,
        #: and each round's position among the samples.
        self.reference = hostspeed.Reference()
        self.round_positions: List[int] = []
        self._lock = threading.Lock()
        self._stop = False

    def run(self, seconds: float, min_rounds: int, max_rounds: Optional[int] = None) -> None:
        """Run rounds until ``seconds`` of rounds and ``min_rounds`` (or exactly ``max_rounds``)."""
        round_start = [0.0]
        started = perf_counter()

        def next_round() -> None:
            if round_start[0]:
                self.round_s.append(perf_counter() - round_start[0])
            self.reference.keep_up()
            self.round_positions.append(self.reference.position)
            done = len(self.round_s)
            if max_rounds is not None:
                self._stop = done >= max_rounds
            else:
                self._stop = ((done >= min_rounds and sum(self.round_s) >= seconds)
                              or perf_counter() - started >= seconds + OVERRUN_LIMIT_S)
            round_start[0] = perf_counter()

        barrier = threading.Barrier(CLIENTS, action=next_round)
        failures: List[BaseException] = []

        def loop(client_id: int) -> None:
            try:
                for round_index in itertools.count():
                    barrier.wait(timeout=REQUEST_TIMEOUT_S * 2)
                    if self._stop:
                        return
                    self._submit(client_id, round_index)
            except threading.BrokenBarrierError:
                return
            except BaseException as error:  # surfaced after join, never swallowed
                failures.append(error)
                barrier.abort()

        threads = [threading.Thread(target=loop, args=(index,)) for index in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]

    def _submit(self, client_id: int, round_index: int) -> None:
        request = Request(client_id, round_index,
                          self.workload.make(self.seed, client_id, round_index))
        request.submitted = perf_counter()
        try:
            for event in client.submit(request.document, host=self.server.host,
                                       port=self.server.port, timeout=REQUEST_TIMEOUT_S):
                now = perf_counter()
                kind = event["event"]
                if kind == "accepted":
                    request.accepted = now
                elif kind == "unit":
                    request.unit_events.append(now)
                elif kind == "result":
                    request.result = event
                    request.finished = now
        except ServerRequestError as error:
            request.refused = str(error)
        except OSError as error:
            request.refused = f"connection failed: {error}"
        with self._lock:
            self.requests.append(request)


def unit_count(document: Dict[str, Any]) -> int:
    """Units a serve document compiles to: one per matrix cell (repetitions are 1)."""
    count = 1
    for values in document["matrix"].values():
        count *= len(values)
    return count


def served(request: Request) -> bool:
    return request.result is not None and request.result["status"] == "ok"


def delivered_units(request: Request) -> int:
    """Units a request received, whether computed, replayed or coalesced."""
    return unit_count(request.document) if served(request) else 0


def simulated_hyperperiods(request: Request) -> int:
    """Hyperperiods simulated for the units this request computed (replays simulate nothing)."""
    if not served(request):
        return 0
    spec = ScenarioLoader().from_document(request.document)
    return request.result["computed"] * len(spec.offline.methods) * spec.simulation.hyperperiods


def tally_errors(requests: List[Request]) -> stats.ErrorTally:
    tally = stats.ErrorTally()
    for request in requests:
        units = unit_count(request.document)
        if request.refused is not None or request.result is None:
            tally.add_refused(units)
            continue
        result = request.result
        failed = result.get("failed", 0)
        if result["status"] == "ok":
            failed += sum(point["jobs"] for point in result["points"] if point["deadline_misses"])
        else:
            failed = max(failed, 1)
        tally.add_units(units, min(units, failed))
    return tally


def points_mismatches(requests: List[Request], seed: int) -> List[str]:
    """Sampled result events must equal an in-process run of the same document."""
    finished = sorted(filter(served, requests), key=lambda r: (r.round, r.client))
    if not finished:
        return ["no request returned a result"]
    sample = random.Random(f"verify:{seed}").sample(finished, min(VERIFY_REQUESTS, len(finished)))
    loader = ScenarioLoader()
    mismatches = []
    for request in sample:
        expected = ScenarioEngine(MemoryStore()).run(loader.from_document(request.document)).points
        if request.result["points"] != expected:
            mismatches.append(f"request round {request.round} client {request.client}: "
                              "served points differ from the in-process run")
    return mismatches


def acs_saving(requests: List[Request], prefix: int) -> List[float]:
    """ACS improvement of each distinct unit in the first ``prefix`` requests of the seeded sequence.

    Hot units recur in most requests; counting each unit once keeps a few
    of them from dominating the mean.
    """
    ordered = sorted(requests, key=lambda r: (r.round, r.client))[:prefix]
    savings: Dict[Tuple[int, int], float] = {}
    for request in ordered:
        if served(request):
            for position, point in enumerate(request.result["points"]):
                unit = (position, point["coords"]["simulation.seed"])
                savings[unit] = point["methods"]["acs"]["mean_improvement_percent"]
    return list(savings.values())


def server_counters(server: Server) -> Dict[str, int]:
    return client.stats(server.host, server.port, timeout=10.0)["counters"]


def server_layers(requests: List[Request], counters: Dict[str, int]) -> Dict[str, Dict[str, float]]:
    """Per-layer metrics of the server, from event timing and ``/stats``."""
    accept = [r.accepted - r.submitted for r in requests if r.accepted is not None]
    waits = [moment - r.accepted for r in requests if r.accepted is not None
             for moment in r.unit_events]
    computed = counters.get("serve.units.computed", 0)
    deduped = counters.get("serve.units.deduped", 0)
    coalesced = counters.get("serve.units.inflight_coalesced", 0)
    metric = stats.metric
    return {
        "server.accept_s": metric(statistics.median(accept) if accept else 0.0, "s"),
        "server.unit_wait_s": metric(statistics.median(waits) if waits else 0.0, "s"),
        "server.units_computed": metric(computed, "count"),
        "server.units_deduped": metric(deduped, "count"),
        "server.units_coalesced": metric(coalesced, "count"),
        "server.dedup_ratio": metric(
            stats.share(deduped + coalesced, computed + deduped + coalesced), "ratio"),
        "server.units_retried": metric(counters.get("serve.units.retried", 0), "count"),
    }


def store_layers(store: Path) -> Dict[str, Dict[str, float]]:
    """Store size and solves computed, read from the server's store on disk."""
    files = [path for path in store.rglob("*.json") if "claims" not in path.parts]
    solves = [path for path in files if "solve-memo" in path.parts]
    metric = stats.metric
    return {
        "scenarios.store_bytes": metric(sum(path.stat().st_size for path in files), "bytes"),
        "offline.solves": metric(len(solves), "count"),
    }


def boot_times(root: Path, workdir: Path,
               reference: hostspeed.Reference) -> Tuple[List[Tuple[float, int]], Server]:
    """Boot :data:`SETUP_REPEATS` servers on fresh stores; the last one stays up.

    ``reference`` samples the host speed before each boot and after the
    last; returns each boot's wall seconds and sample position.
    """
    times = []
    for attempt in range(SETUP_REPEATS):
        reference.keep_up()
        position = reference.position
        server = Server(root, workdir / f"serve-store-{attempt}", workdir / f"serve-{attempt}.log")
        try:
            times.append((server.start(), position))
        except BaseException:
            server.stop()
            raise
        if attempt < SETUP_REPEATS - 1:
            server.stop()
    reference.keep_up()
    return times, server

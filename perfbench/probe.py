"""One cold setup, timed by its parent: imports, document load and compile, store creation.

Usage: ``python3 perfbench/probe.py <workload> <seed> <store dir>``; prints
``ready`` once the first unit could be submitted.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.scenarios.engine import ScenarioEngine  # noqa: E402
from repro.scenarios.loader import ScenarioLoader  # noqa: E402
from repro.scenarios.store import ResultStore  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    name, seed, store = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    spec = ScenarioLoader().from_document(WORKLOADS[name].make(seed, 0))
    ScenarioEngine(ResultStore(store)).compile(spec)
    print("ready", flush=True)


if __name__ == "__main__":
    main()

"""Make the benchmark's modules and the program's source importable from the tests."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
for path in (PERFBENCH.parent / "src", PERFBENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

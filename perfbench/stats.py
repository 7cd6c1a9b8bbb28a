"""Summary statistics shared by every workload: percentiles, failure accounting, memory."""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile of ``samples`` -> ``(value, samples strictly beyond its rank)``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(pct, value, beyond)``, or ``None`` when not even the median
    has ten samples beyond it (fewer than 20 samples).
    """
    best = None
    for pct in PERCENTILE_LADDER:
        value, beyond = percentile(samples, pct)
        if beyond < MIN_BEYOND:
            break
        best = (pct, value, beyond)
    return best


def describe_latency(name: str, samples: Sequence[float]) -> str:
    """One human-readable line: median, tail percentile and the sample count."""
    tail = tail_percentile(samples)
    median, _ = percentile(samples, 50.0)
    if tail is None:
        return f"# {name}: p50={median:.6f}s n={len(samples)} (too few samples for a tail percentile)"
    pct, value, beyond = tail
    return (f"# {name}: p50={median:.6f}s p{pct:g}={value:.6f}s "
            f"n={len(samples)} ({beyond} beyond p{pct:g})")


@dataclass
class ErrorTally:
    """Failed units over attempted units.

    A unit fails on a deadline miss, a correctness mismatch or a failed
    result; a request the server refuses (HTTP 4xx/5xx) fails every unit it
    carried, so refusals count against the rate instead of vanishing from it.
    """

    attempted: int = 0
    failed: int = 0

    def add_units(self, attempted: int, failed: int = 0) -> None:
        if failed > attempted:
            raise ValueError(f"{failed} failed units out of {attempted} attempted")
        self.attempted += attempted
        self.failed += failed

    def add_refused(self, units: int) -> None:
        """A refused request: all of its ``units`` count as attempted and failed."""
        self.add_units(max(1, units), max(1, units))

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM line for pid {pid}")


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def quartile_spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (the stability rule)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")

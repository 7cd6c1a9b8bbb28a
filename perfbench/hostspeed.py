"""Host-speed reference: a fixed pure-Python kernel timed between pieces of measured work.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent, over seconds to minutes, with the load of other tenants; the
drift slows the program's CPU time as much as its wall time, so it is not
stolen time that a CPU clock would leave out.  Identical documents then take
anywhere between 1x and 2x as long, and ten 20-second runs of the same work
spread by 10-30% around their median.

The kernel below does a fixed amount of interpreter work that does not depend
on the program.  Timed between documents (or rounds, or setups) it samples
how fast the host is running at that moment.  Every timing the benchmark
reports is scaled by ``REFERENCE_S / mean(kernel time)`` over the samples
taken around it: seconds as they would read on the host running at
reference speed.  A change to the program cannot move the kernel, so the
scaling cancels host drift without hiding any change in the program.  The
raw wall-clock figures are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

#: Kernel time on the reference host (2-vCPU Intel Xeon VM, quiet state).
REFERENCE_S = 0.025

#: Kernel loop length.
KERNEL_STEPS = 300_000

#: Share of a run's time spent sampling the kernel.
SHARE = 0.1

#: Samples on each side of a piece of work that give its local scale.
REACH = 3


def kernel_seconds() -> float:
    """Wall seconds of one fixed pass of interpreter arithmetic."""
    start = perf_counter()
    total = 0
    for step in range(KERNEL_STEPS):
        total += step * step % 7
    return perf_counter() - start


class Reference:
    """Kernel samples interleaved with the work they scale.

    Each :meth:`keep_up` runs kernel passes until they fill ``share`` of the
    time since the reference began, so the samples cover the run evenly
    whether the work between calls takes 50 ms or 2 s.
    """

    def __init__(self, share: float = SHARE) -> None:
        self.share = share
        self.samples: List[float] = []
        self._kernel_s = 0.0
        self._started = perf_counter()

    def keep_up(self) -> None:
        """Sample until the kernel has had its share of the time so far (at least once)."""
        while not self.samples or (
                self._kernel_s < self.share * (perf_counter() - self._started - self._kernel_s)):
            self.samples.append(kernel_seconds())
            self._kernel_s += self.samples[-1]

    @property
    def position(self) -> int:
        """Where work starting now falls among the samples."""
        return len(self.samples)

    @property
    def scale(self) -> float:
        """Reference seconds per wall second over the whole run (below 1 when the host runs slow)."""
        return self._scale(self.samples)

    def local_scale(self, position: int) -> float:
        """Reference seconds per wall second for work that started at ``position``.

        Uses the :data:`REACH` samples taken just before the work and the
        :data:`REACH` taken after it, so work that ran through a slow spell
        of the host is scaled by that spell, not by the whole run.
        """
        return self._scale(self.samples[max(0, position - REACH):position + REACH])

    @staticmethod
    def _scale(samples: List[float]) -> float:
        if not samples:
            raise ValueError("no host-speed samples taken")
        return REFERENCE_S / statistics.fmean(samples)

    def describe(self, name: str) -> str:
        return (f"# host speed over {name}: scale {self.scale:.4f} from {len(self.samples)} "
                f"kernel samples, median {statistics.median(self.samples) * 1e3:.2f} ms")

"""Host-speed calibration for the end-to-end timings.

The box this benchmark was built on changes its effective speed by 20-40%
over tens of seconds (a fixed computation's time varies that much; CPU
time tracks wall time, so it is not descheduling).  Raw wall times of two
runs of identical code therefore disagree by more than any useful
regression bound.

A run therefore times :func:`kernel` -- a fixed pure-Python message-passing
loop that shares no code with the package under test -- between its
measurement windows, and every end-to-end time but ``p99_ms`` is reported
in *reference seconds*: wall seconds times ``REFERENCE_KERNEL_S / kernel
time`` measured next to it.  A change to the package moves the workload's
time and not the kernel's, so it shows in full; a slow period of the host
stretches both and cancels.  The raw wall figures are kept in the run's
details.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter
from typing import Dict, List, Tuple

#: the kernel's mean time on this box (2-CPU "Intel(R) Xeon(R) Processor",
#: Python 3.11.7); reference seconds are seconds at that speed.
REFERENCE_KERNEL_S = 0.010

#: a run times the kernel between operations at most this often.
INTERVAL_S = 0.25


class _Node:
    __slots__ = ("nid", "nbrs", "state", "out")

    def __init__(self, nid: int, nbrs: List[int]) -> None:
        self.nid = nid
        self.nbrs = nbrs
        self.state = nid
        self.out: List[Tuple[int, Tuple[str, int]]] = []

    def step(self, inbox: List[Tuple[int, int]]) -> None:
        best = self.state
        for _, value in inbox:
            if value < best:
                best = value
        if best != self.state or not inbox:
            self.state = best
            for w in self.nbrs:
                self.out.append((w, ("min", best)))


def kernel(n: int = 900, rounds: int = 12) -> int:
    """Min-label flooding on a fixed 3-regular-ish graph (~12 ms here)."""
    nodes = [
        _Node(v, [(v + 1) % n, (v * 7 + 3) % n, (v * 13 + 5) % n])
        for v in range(n)
    ]
    pending: Dict[int, List[Tuple[int, int]]] = {}
    for _ in range(rounds):
        delivered: Dict[int, List[Tuple[int, int]]] = {}
        for node in nodes:
            node.step(pending.get(node.nid, []))
            for dst, message in node.out:
                delivered.setdefault(dst, []).append((node.nid, message[1]))
            node.out.clear()
        pending = delivered
    return sum(node.state for node in nodes)


class HostClock:
    """Kernel timings spread through one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: the middle of each timing, as a ``perf_counter`` reading.
        self.stamps: List[float] = []
        self._last = 0.0

    def sample(self) -> None:
        """Time the kernel once.

        The collector is off while the kernel runs: otherwise a kernel
        that happens to trigger a full collection pays for scanning the
        workload's heap (3-5x its own time).  The kernel frees all it
        allocates on return, so the workload's collections are unmoved.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            began = perf_counter()
            kernel()
            self._last = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(self._last - began)
        self.stamps.append((self._last + began) / 2)

    def maybe_sample(self) -> None:
        """Sample if ``INTERVAL_S`` has passed since the last sample."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor_at(self, moment: float) -> float:
        """Factor for one moment of the run (a ``perf_counter`` reading):
        the median of the two kernel timings before it and the two after.

        The kernel reads about 8.5 ms in this box's fast stretches and
        about 15 ms in its slow ones, which last from under a second to
        several seconds.  A run-wide factor misprices the slowest
        operations of a run that spent part of its time in each, since
        they come from its slow stretches; a factor per moment prices
        each operation at the speed of its own stretch.
        """
        i = bisect.bisect(self.stamps, moment)
        nearest = self.samples[max(0, i - 2):i + 2]
        return REFERENCE_KERNEL_S / statistics.median(nearest)

    def spot_factor(self, samples: int = 3) -> float:
        """Reference factor for the moment now, from ``samples`` back-to-back
        kernel timings: their median, as the first in a fresh process can
        run cold.  Used for a short stretch such as one set-up.
        """
        for _ in range(samples):
            self.sample()
        return REFERENCE_KERNEL_S / statistics.median(self.samples[-samples:])

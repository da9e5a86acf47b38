"""Box-speed calibration.

The 2-core Intel Xeon virtual machine this benchmark was tuned on shares
its cores with other machines' work: a fixed CPU kernel's time drifts by
+-20% over tens of seconds. So that runs on a fast and on a slow stretch
compare, every run times a fixed reference kernel (interpreter work plus a
numpy sort, the same mix the engine spends its time on) at regular points
while the benchmark's own process is otherwise idle. Each end-to-end
time is scaled by ``REFERENCE_MS / median(kernel ms)`` over the
calibrations nearest to it: milliseconds on a box that runs the kernel
in ``REFERENCE_MS``. The raw figures and the run's median factor are kept
in the run's JSON under ``perfbench/out/``.

The kernel calls nothing in ``src/``. The program can still slow it by
keeping a thread busy while it runs: the query log serialises records on
a writer thread. So each calibration first runs ``idle``, which the
workloads set to the query log's flush, and is taken only where no
request is in flight.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time on the reference box (2-core Intel Xeon VM, quiet stretch).
REFERENCE_MS = 1.25
#: Minimum wall time between two calibrations in a loop.
INTERVAL_S = 0.1

_DATA = np.random.default_rng(0).integers(0, 1 << 30, 40_000)


def _kernel() -> int:
    total = 0
    for i in range(2_500):
        total += hash((i, i * 7, "k")) & 7
    return total + int(np.sort(_DATA)[-1] & 1)


class Speed:
    """Calibration samples of one run, as ``(time, kernel ms)`` pairs."""

    #: Calibrations nearest in time that set the factor at one instant.
    NEAREST = 5

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._last = 0.0
        #: Called, untimed, before each calibration to let the program's
        #: background threads go idle.
        self.idle = None

    def measure(self) -> None:
        if self.idle is not None:
            self.idle()
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, (end - start) * 1000.0))
        self._last = end

    def tick(self) -> None:
        """Calibrate if INTERVAL_S has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.measure()

    @property
    def factor(self) -> float:
        """The run's median factor: multiply a wall-clock time by it to
        express the time at reference speed."""
        return REFERENCE_MS / statistics.median(ms for _, ms in self.samples)

    def factor_at(self, when: float) -> float:
        """Factor from the NEAREST calibrations to *when*, which follows
        the box's speed through a run."""
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - when))
        return REFERENCE_MS / statistics.median(
            ms for _, ms in nearest[:self.NEAREST])

    def factor_between(self, start: float, end: float) -> float:
        """Factor from the calibrations inside ``[start, end]``."""
        inside = [ms for t, ms in self.samples if start <= t <= end]
        if len(inside) < self.NEAREST:
            return self.factor_at((start + end) / 2)
        return REFERENCE_MS / statistics.median(inside)

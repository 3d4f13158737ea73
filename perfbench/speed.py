"""Machine-speed reference, so that timings on a shared machine compare.

On a machine shared with other tenants the speed of this process drifts by
15-25 % over minutes, and longer runs do not average the drift out.  So each
timed interval is also reported at reference speed: a fixed pure-Python
loop that never touches codedpid (the probe) is timed every
``PROBE_EVERY_S`` seconds and around every audit, and an interval's
reference-speed duration is its measured duration times ``REFERENCE_S``
over the median probe time near it.  Where the probe takes ``REFERENCE_S``
seconds the two durations are equal.

The probe is timed in CPU time of the calling thread, not in wall time.  On
the machine the bounds were set on the two agree within 0.3 % (the drift
slows the core, it does not deschedule the process), but only wall time
counts the waits for the interpreter lock: a program that moves work onto a
thread of its own would slow a wall-timed probe and so shrink every
reported time, hiding the slowdown its thread causes to the rounds.
"""

from __future__ import annotations

import bisect
import statistics
import time

PROBE_LOOPS = 20_000
# What the probe takes on an unloaded core of the machine the bounds were set
# on (an Intel Xeon at 2 vCPUs, Python 3.11); it only sets the scale.
REFERENCE_S = 1.5e-3
PROBE_EVERY_S = 0.1
WINDOW_S = 0.25


def probe_loop() -> float:
    """CPU seconds of this thread for a fixed interpreter-bound loop."""
    start = time.thread_time()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.thread_time() - start


class SpeedLog:
    """Probe times of one run, by the moment they were taken."""

    def __init__(self):
        self.times: list[float] = []  # probe midpoints, ascending
        self.seconds: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        start = time.perf_counter()
        took = probe_loop()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.seconds.append(took)
        self._last = end

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.seconds[lo:hi]
        if not near:
            i = bisect.bisect_left(self.times, start)
            near = self.seconds[max(i - 1, 0) : i + 1]
        return REFERENCE_S / statistics.median(near)

    def scaled(self, start: float, end: float) -> float:
        """The interval's duration at reference speed."""
        return (end - start) * self.factor(start, end)

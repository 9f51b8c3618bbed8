"""Host-speed probe: scales the benchmark's times to a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
20-70% over seconds to minutes.  Raw times of identical work then spread
more across a set of runs than the benchmark's bounds allow.  The probe measures the host's speed while the
program runs, and the worker reports every time scaled to the speed of a
reference host:

    reported = measured * REFERENCE_PROBE_S / probe median

``probe_work`` is a fixed pure-Python loop that uses nothing of commprob,
so a change to the program does not move the probe, and a program that
gets faster reads faster in full.  ``Probe.start`` arms a SIGALRM interval
timer; every ``INTERVAL_S`` the handler runs ``probe_work`` once in the
main thread, between two bytecodes of whatever runs, and records when it
ran and how long it took.  The process stays single-threaded.  The probe's
own time inside a timed interval is subtracted from that interval
(``probe_time``).  ``burst`` takes samples back to back, without the timer,
for the set-up time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.05
# probe_work's median time on the 2-vCPU host where the baseline was made;
# a fixed scale, the same for every commit
REFERENCE_PROBE_S = 0.001
BURST = 25
_ROUNDS = 10000


def probe_work() -> int:
    acc = 1
    for i in range(_ROUNDS):
        acc = (acc * 31 + i) % 65521
    return acc


class Probe:
    """Probe samples in start order: when each began and how long it took."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        probe_work()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def burst(self) -> None:
        for _ in range(BURST):
            self._sample()

    def _between(self, t0: float, t1: float) -> slice:
        return slice(bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1))

    def probe_time(self, t0: float, t1: float) -> float:
        """Time the probe itself took inside [t0, t1)."""
        return sum(self.durations[self._between(t0, t1)])

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_PROBE_S over the median probe time inside [t0, t1)."""
        inside = self.durations[self._between(t0, t1)]
        if not inside:
            raise RuntimeError("no probe sample in the interval")
        return REFERENCE_PROBE_S / statistics.median(inside)

"""Host-speed calibration taken during the measured loop.

On a shared virtual machine each CPU's speed can swing by up to half for
seconds at a time (on 2 vCPUs of an Intel Xeon, a fixed pure-Python loop
took 13.6 ms in one 5 s stretch and 21.9 ms in another, its thread CPU
time swinging with it), so a loop's wall time says as much about the host
as about the program.  :class:`SpinClock` times a fixed pure-Python spin every
:data:`INTERVAL_S` throughout the loop, on the thread that runs it, from
a ``SIGALRM`` handler.  Its :attr:`~SpinClock.slowdown` is the mean
spin time over :data:`REFERENCE_SPIN_S`; run.py divides each time of the
loop by it, so the reported figures read as if the host had run at its
reference speed the whole time.  A loop's rates are scaled by the
slowdown over the whole loop, each operation's latency by the slowdown
while it ran (:meth:`~SpinClock.slowdown_during`), since the host's speed
changes within one loop.

The spin is timed by the calling thread's CPU time, so neither the other
threads of the process nor waiting for the GIL enter it: a program
change that costs more CPU or holds the GIL longer still shows in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: seconds between two spins (each costs 0.13-0.2 ms, about 1 % of the thread)
INTERVAL_S = 0.02
#: the spin's mean thread CPU time on the host the benchmark's figures
#: were first taken on (2 vCPUs of an Intel Xeon, Python 3.11)
REFERENCE_SPIN_S = 125e-6
SPIN_STEPS = 2000


def spin() -> int:
    """A fixed amount of interpreter work."""
    total = 0
    for i in range(SPIN_STEPS):
        total += i * i % 7
    return total


class SpinClock:
    """Times :func:`spin` every :data:`INTERVAL_S` while the block runs.

    Must be entered on the main thread (``SIGALRM`` handlers run there).
    Blocking calls interrupted by the signal are resumed by Python.  It
    may be entered again; the samples of every block are kept.
    """

    def __init__(self) -> None:
        #: each spin's thread CPU time, and when it ended (perf_counter)
        self.samples: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.thread_time()
        spin()
        self.samples.append(time.thread_time() - t0)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "SpinClock":
        # one spin on entry, so a block shorter than the interval has one
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def spin_s(self) -> float:
        """Mean spin time over every block run under this clock.

        The mean, not the median: spins are spread evenly over the block,
        so their mean follows the host's speed averaged over the block,
        which is what the block's wall time saw.
        """
        return statistics.fmean(self.samples)

    @property
    def slowdown(self) -> float:
        """How much slower than its reference speed the host ran."""
        return self.spin_s / REFERENCE_SPIN_S

    def slowdown_during(self, start: float, end: float) -> float:
        """The slowdown over ``[start, end]`` (``perf_counter`` times).

        The mean of the spins that ended in it; for an interval that fell
        between two spins, the next spin (the last one if none followed).
        """
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        if lo == hi:
            lo = min(lo, len(self.ends) - 1)
            hi = lo + 1
        return statistics.fmean(self.samples[lo:hi]) / REFERENCE_SPIN_S

"""Machine-speed sampling, so that times measured on a noisy host compare.

The host this benchmark was built on runs the same Python code at two
speeds that alternate within tens of milliseconds and drift over tens of
seconds: one RK4 step of the oracle takes 41 to 86 us.  All Python work
slows, though not all by the same factor.  A raw time therefore says more
about the neighbours than about qcl.

While it is started, ``SpeedSampler`` times ``kernel`` from a timer signal
every ``INTERVAL_S`` seconds, so the samples also fall inside long qcl
calls.  ``now_ns`` is a clock that stands still while the handler runs, so
an interval measured with it excludes the sampling.  ``scale`` turns such an
interval into seconds at the reference speed, the speed at which ``kernel``
takes ``REFERENCE_S``.
"""

from __future__ import annotations

import math
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter_ns

#: Seconds between two samples.
INTERVAL_S = 0.05
#: Time of ``kernel`` at the reference speed, in seconds.
REFERENCE_S = 0.002
#: Samples held at most: an hour at ``INTERVAL_S``.  The buffers are made in
#: advance, so a sample allocates nothing that could move numpy's buffers.
CAPACITY = 72_000


def kernel(iters: int = 6000) -> float:
    """Fixed interpreter work that does not touch qcl: float arithmetic and
    builtin calls, as in qcl's inner loops.

    It makes no numpy array and nothing else that comes from ``malloc``, only
    small Python objects, because qcl's results can depend on where numpy's
    buffers land (see README), and the kernel runs inside qcl's calls.
    """
    acc = 0.0
    for i in range(iters):
        x = i * 0.37
        acc += math.floor(x + 0.5) - x
        if i % 8 == 0:
            acc += abs(min(x, 0.5) - max(x * 1e-3, 0.25)) * 1e-9
    return acc


class SpeedSampler:
    def __init__(self):
        #: ``now_ns`` at each sample and the sample's kernel time in ns; the
        #: first ``count`` entries are filled.
        self.at: list[int] = [0] * CAPACITY
        self.took: list[int] = [0] * CAPACITY
        self.count = 0
        self._spent = 0

    def now_ns(self) -> int:
        """Nanoseconds of ``perf_counter`` minus those spent sampling."""
        return perf_counter_ns() - self._spent

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter_ns()
        kernel()
        took = perf_counter_ns() - t0
        if self.count < CAPACITY:
            self.at[self.count] = t0 - self._spent
            self.took[self.count] = took
            self.count += 1
        self._spent += took

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling and take a last sample; does nothing once stopped."""
        if signal.getsignal(signal.SIGALRM) == self._sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._sample()

    def scale(self, t0: int, t1: int) -> float:
        """Reference seconds per second measured over ``[t0, t1]`` (``now_ns``).

        Averages the samples taken in the interval and the nearest one on
        each side, so that an interval shorter than ``INTERVAL_S`` has two.
        """
        lo = max(0, bisect_left(self.at, t0, 0, self.count) - 1)
        hi = min(self.count, bisect_right(self.at, t1, 0, self.count) + 1)
        took = self.took[lo:hi]
        return REFERENCE_S * 1e9 * len(took) / sum(took)

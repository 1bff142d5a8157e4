"""Host-speed reference: host seconds scaled to one fixed host speed.

The benchmark's host shares its cores with other tenants, and its speed
drifts by tens of percent within seconds and across minutes: on a 2-vCPU
2.0 GHz Xeon container a fixed pure-Python loop ran at 0.6-1x its best
speed within five minutes, and medians over 30-second windows spread by
22%.  Plain wall-clock times of separate runs spread as much.

So every timed span is paced.  While the worker runs, a ``SIGALRM`` timer
interrupts the program every ``INTERVAL_S`` and runs a fixed reference
loop (:func:`reference`); one more reference runs just before and just
after each span.  The reference's own time is taken out of the span, and
the span's remaining wall-clock time is scaled by ``REF_S`` over the
mean reference time measured in and around it.  The result is in
seconds at the host speed at which the reference takes ``REF_S``: a
slower program still reads slower, a slower host does not.  On that
container, over eight minutes in which the wall-clock times of single
matmul runs and model-checker explorations spread by 29-43%
(interquartile range over median), their paced times spread by 6-7%.
The mean of the samples tracks the host better than their median or
minimum: the slow samples fall where the program ran slowly too.

The reference is the benchmark's own code, never the program's, so a
change to the program cannot move it.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

#: seconds between reference samples inside a span
INTERVAL_S = 0.05
#: the reference's time at the nominal host speed (about its median on
#: the container above), so paced seconds read close to wall seconds
REF_S = 0.0025


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 0.5

    def step(self, k: int) -> float:
        self.value = self.value * 0.999 + k * 1e-3
        return self.value


_ITEMS = [_Item(i) for i in range(256)]


def reference() -> float:
    """A fixed mix of the work an interpreter loop does: dict stores,
    integer and float arithmetic, method calls on small objects."""
    table: dict = {}
    total = 0
    for i in range(6000):
        table[i & 1023] = total
        total += i * 3 % 7
    acc = 0.0
    for i in range(2000):
        item = _ITEMS[i & 255]
        acc += item.step(i)
        table[(i & 63, item.key)] = acc
    return acc + total


class Span:
    """One paced span: ``wall`` is its wall-clock time without the
    references, ``ref`` the mean reference time in and around it, and
    ``seconds`` the wall time scaled to the nominal host speed."""

    wall = ref = seconds = 0.0


class Pacer:
    """Samples the reference on a timer and paces spans with it."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[float] = []
        #: host seconds spent in the reference so far
        self.stolen = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        reference()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.stolen += took

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        """Disarm the timer.  Call it before the process exits: once Python
        shuts down, an alarm's default action would kill the process."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def mean_since(self, first: int) -> float:
        taken = self.samples[first:]
        return sum(taken) / len(taken)

    @contextmanager
    def span(self):
        self.sample()
        first = len(self.samples) - 1
        stolen = self.stolen
        span = Span()
        start = time.perf_counter()
        try:
            yield span
        finally:
            span.wall = time.perf_counter() - start - (self.stolen - stolen)
            self.sample()
            span.ref = self.mean_since(first)
            span.seconds = span.wall * REF_S / span.ref


@contextmanager
def wall_span():
    """An unpaced span, for the traced pass: plain wall-clock seconds."""
    span = Span()
    start = time.perf_counter()
    try:
        yield span
    finally:
        span.wall = span.seconds = time.perf_counter() - start

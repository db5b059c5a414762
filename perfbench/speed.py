"""The machine's current speed, read off a fixed pure-Python loop.

On a shared host the same interpreter work can take half as long again
from one spell of a few seconds to the next.  Timing this loop next to the
measured work gives a factor that scales a measured time to what it would
have been at the reference speed: ``REFERENCE_S / loop time``.  The loop
mixes integer arithmetic, dict updates and small allocations, the same
kinds of work the library's pure-Python code does.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable

# Loop time at full speed on a shared 2-core x86 VM running Python 3.11.
REFERENCE_S = 0.004
INTERVAL_S = 0.2


def loop_s() -> float:
    """Seconds the reference loop takes now."""
    start = time.perf_counter()
    total = 0
    counts: dict[int, int] = {}
    for i in range(28_000):
        total += i * i % 7
        counts[i % 97] = counts.get(i % 97, 0) + 1
        if i % 64 == 0:
            total += len([i, total, i])
    return time.perf_counter() - start


class Sampler:
    """Reads the loop every ``INTERVAL_S`` of wall time from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so an op that
    lasts seconds gets readings from while it runs, not only from its ends.
    ``spent_s`` totals the time spent reading, for the caller to take out
    of its measurements; ``on_reading`` hears of each reading's duration.
    Used without ``with``, it reads only when ``read_now`` is called.
    """

    def __init__(self, on_reading: Callable[[float], None] | None = None) -> None:
        self.loop_times: list[float] = []
        self.spent_s = 0.0
        self.on_reading = on_reading

    def _read(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.loop_times.append(min(loop_s(), loop_s()))
        spent = time.perf_counter() - start
        self.spent_s += spent
        if self.on_reading:
            self.on_reading(spent)

    def read_now(self) -> None:
        """Take one reading at once, with the timer's signal held back."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._read()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def factor(self, first: int, last: int) -> float:
        """Scale factor from the mean of readings ``first..last`` inclusive."""
        return REFERENCE_S / statistics.fmean(self.loop_times[first : last + 1])

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

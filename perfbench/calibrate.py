"""Timings scaled to a reference host speed, for a shared machine.

The machine the benchmark was sized on is shared with other tenants. Its
speed changes by up to 2x, within a second and for minutes at a time, and
process CPU time moves with wall time, so neither alone is steady. A
fixed pure-Python kernel run at short intervals on the same thread slows
down with the timed work. SpeedClock times a block of work and samples
that kernel every PERIOD_S from a SIGALRM handler, as well as once just
before and once just after the block. The handler's own time is taken
out of the block's time.

    elapsed = block wall time - time spent in the handler
    scaled  = elapsed * mean(REF_S / kernel sample)

scaled is the block's time at the speed where the kernel takes REF_S,
a typical duration of it on the 2-core Xeon host the benchmark was sized
on (Python 3.11; it took 2.2 to 4.5 ms there). Because the kernel is
fixed, a change to papsim moves scaled as it moves elapsed. The kernel
needs nothing but the standard library, so it can run before numpy or
papsim is imported.
"""

from __future__ import annotations

import math
import signal
import time

PERIOD_S = 0.1
KERNEL_STEPS = 5000
REF_S = 0.004


def kernel() -> float:
    """Interpreter-bound work: complex arithmetic, calls, list and dict churn."""
    z = 0j
    acc = []
    seen = {}
    for k in range(KERNEL_STEPS):
        z = z * 0.999 + complex(math.cos(k), math.sin(k))
        if k % 7 == 0:
            acc.append(z.real)
            seen[k & 255] = acc[-1]
    return sum(acc) + len(seen)


class SpeedClock:
    """Context manager: elapsed and scaled time of the block it wraps.

    Main thread only (SIGALRM). Not re-entrant.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.elapsed = 0.0
        self._in_handler = 0.0

    def _sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        t = time.perf_counter() - t0
        self.samples.append(t)
        return t

    def _on_alarm(self, signum, frame) -> None:
        self._in_handler += self._sample()

    def __enter__(self) -> "SpeedClock":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.elapsed = end - self._start - self._in_handler
        self._sample()

    @property
    def speed(self) -> float:
        """Mean host speed during the block, relative to the reference."""
        return sum(REF_S / s for s in self.samples) / len(self.samples)

    @property
    def scaled(self) -> float:
        return self.elapsed * self.speed

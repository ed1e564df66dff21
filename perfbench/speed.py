"""Machine-speed probe for normalizing timings on a shared host.

The shared 2-core host this benchmark was built on runs the same job up
to 1.8x faster or slower for seconds to minutes at a time, whatever the
job, and not by the same ratio for every kind of code.  A
``Speedometer`` samples the speed while jobs run: every ``INTERVAL``
seconds a SIGALRM handler times four fixed kernels shaped like the
package's own hot paths: a pure Python float loop (quadrature
integrands), numpy calls on one-element arrays (the band lookups inside
quadrature), a ufunc pass over a 4096-element array and random draws
plus arccos over 8192 elements (Monte Carlo chunks).  Each kernel is run once untimed first, so the cache state the
job leaves behind does not leak into the reading.  ``factor(t0, t1)`` is
the geometric mean of REF / duration of the four kernels over an
interval, so ``duration * factor`` is the time the interval would have
taken at the reference speed.

The kernels are the benchmark's own code, so a change to spherebell
cannot move the probe except through the cache (the untimed warm-up
pass) or the 0.7% of time the probe takes, which every commit pays.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL = 0.05
NEAREST = 20  # samples used for intervals shorter than NEAREST * INTERVAL

# warm kernel durations on an Intel Xeon (2 vCPU) host in its usual
# state; they only fix the unit, so normalized times read as seconds
REF_S = (25e-6, 35e-6, 28e-6, 90e-6)

_X = np.linspace(-0.99, 0.99, 4096)
_ONE = np.array([0.3])
_RNG = np.random.default_rng(0)


def _loop() -> float:
    s = 0.0
    for i in range(150):
        s += math.acos((i % 100) * 0.01)
    return s


def _calls() -> int:
    n = 0
    for _ in range(8):
        n += int(np.where(_ONE >= 0.2, 1, -1)[0])
    return n


def _ufunc() -> float:
    return float(np.sum(np.arccos(_X) * _X))


def _stream() -> float:
    x = _RNG.uniform(-1.0, 1.0, 8192)
    return float(np.sum(np.arccos(x)))


KERNELS = (_loop, _calls, _ufunc, _stream)


def probe() -> tuple:
    """(time, seconds of each kernel) of one warm reading."""
    start = perf_counter()
    times = []
    for kernel in KERNELS:
        kernel()
        t = perf_counter()
        kernel()
        times.append(perf_counter() - t)
    return (start, *times)


class Speedometer:
    """Samples the machine speed every INTERVAL seconds while entered.

    Uses SIGALRM and ITIMER_REAL, so it must be entered from the main
    thread; the previous handler and timer are restored on exit.
    """

    def __init__(self) -> None:
        self.samples: list[tuple] = []

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, t0: float, t1: float) -> float:
        """Reference-speed time per second of elapsed time in [t0, t1]."""
        inside = [s for s in self.samples if t0 <= s[0] <= t1]
        if len(inside) < NEAREST:
            mid = 0.5 * (t0 + t1)
            inside = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:NEAREST]
        ratios = [
            ref / statistics.median(s[k + 1] for s in inside) for k, ref in enumerate(REF_S)
        ]
        return math.prod(ratios) ** (1.0 / len(ratios))

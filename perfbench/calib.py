"""Host-speed normalisation: wall seconds -> reference seconds.

The benchmark host is shared, and its speed drifts by up to ~18 % over
a few minutes.  Every timing is therefore divided by the wall time of
a fixed pure-Python calibration loop timed right next to it, and
multiplied by :data:`REFERENCE_CALIB_S`:

    ref_s = wall_s * REFERENCE_CALIB_S / calib_s

A host that slows down slows the calibration loop too, so the drift
cancels; a program change leaves the loop alone, so it moves reference
seconds 1:1.

The loop touches only small cached ints and ``None``; it allocates no
objects (so it never triggers the garbage collector) and imports
nothing from ``repro``.  It is timed after every op, only between
operations, while no other benchmark thread runs.  One 5 ms sample
also catches bursts of host speed far shorter than an op, so a timing
is scaled by the median of the SMOOTH samples on each side of it: that
follows drift over seconds and ignores the bursts.

:func:`quantile` is the percentile estimator for reference timings.
"""

from __future__ import annotations

import statistics
import time
from itertools import repeat
from typing import Callable, List, Optional, Tuple

#: Iterations of one calibration loop (about 5 ms on a 2-core x86-64
#: container running CPython 3.11).
CALIB_ITERS = 50_000
#: The wall time one calibration loop is defined to take, in reference
#: seconds.  Fixed forever: changing it rescales every reported time.
REFERENCE_CALIB_S = 0.005
#: Loops per calibration sample; the fastest one is the sample, which
#: drops a loop hit by a scheduler preemption.
CALIB_REPEATS = 3
#: Calibrate again once this much raw work (seconds) has been timed;
#: 0 takes a sample after every op.
WINDOW_S = 0.0
#: Samples on each side of a timing whose median normalises it.
SMOOTH = 8


def _calibration_loop(n: int) -> int:
    a = 1
    b = 7
    for _ in repeat(None, n):
        a = (a + b) & 63
        b = (b ^ a) & 31
        if a > b:
            a = a - b
    return a


def calibrate() -> float:
    """One calibration sample: the wall time of one loop (s)."""
    t0 = time.perf_counter()
    _calibration_loop(CALIB_ITERS)
    return time.perf_counter() - t0


class Timing:
    """One raw wall-time measurement, taken after calibration sample
    number ``window``; ``factor`` is filled in by RefClock.finish()."""

    __slots__ = ("raw", "window", "factor")

    def __init__(self, raw: float, window: int) -> None:
        self.raw = raw
        self.window = window
        self.factor: Optional[float] = None

    @property
    def ref(self) -> float:
        """The measurement in reference seconds."""
        return self.raw * self.factor


class RefClock:
    """Takes calibration samples between operations and turns raw
    timings into reference seconds once the run is over.

    ``settle`` runs before each sample (the serve workload uses it to
    let the service worker go idle).
    """

    def __init__(self, settle: Optional[Callable[[], None]] = None) -> None:
        self.settle = settle
        self.samples: List[float] = []
        self.timings: List[Timing] = []
        self._work = 0.0
        calibrate()  # the interpreter specialises the loop on its first run
        self._sample()

    @property
    def window(self) -> int:
        """Index of the latest calibration sample."""
        return len(self.samples) - 1

    def _sample(self) -> None:
        if self.settle is not None:
            self.settle()
        self.samples.append(calibrate())
        self._work = 0.0

    def stamp(self, raw: float) -> Timing:
        """Register a raw measurement taken since the latest sample."""
        timing = Timing(raw, self.window)
        self.timings.append(timing)
        return timing

    def account(self, raw_work: float) -> None:
        """Count *raw_work* seconds of work; take a sample once WINDOW_S
        has accumulated.  Call only between operations."""
        self._work += raw_work
        if self._work >= WINDOW_S:
            self._sample()

    def measure(self, fn: Callable[[], object]) -> Tuple[object, Timing]:
        """Run *fn* and return ``(its result, its Timing)``."""
        t0 = time.perf_counter()
        out = fn()
        timing = self.stamp(time.perf_counter() - t0)
        self.account(timing.raw)
        return out, timing

    def factor(self, window: int) -> float:
        """Scale for timings taken between samples window and window+1."""
        near = self.samples[max(0, window + 1 - SMOOTH):window + 1 + SMOOTH]
        return REFERENCE_CALIB_S / statistics.median(near)

    def finish(self) -> None:
        """Take the closing sample and scale every timing."""
        if self.timings and self.timings[-1].window == self.window:
            self._sample()
        for timing in self.timings:
            timing.factor = self.factor(timing.window)

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def spread(self) -> float:
        """Interquartile range / median of the calibration samples: how
        much the host's speed moved during the run."""
        q = statistics.quantiles(self.samples, n=4)
        return (q[2] - q[0]) / self.median_s()


def quantile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the *p* quantile: a Beta-weighted mean
    of all order statistics.  It varies less from run to run than one or
    two order statistics, above all in a tail that falls between the
    clusters of a mixed op list."""
    # Imported here so that numpy's import is timed as part of the
    # program's import in set-up.
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)
    inner = grid[1:-1]
    log_pdf = (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)

"""Host-speed gauge: a fixed reference task timed between the measured work.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same ``optimize`` call, repeated in one process, took from 0.4 to 0.7 s
within a minute, and CPU time drifted with wall time, so the drift is the
cores' speed and not scheduling.  The gauge runs a fixed task that calls no
quchain code next to every timed interval.  A timed interval is then
reported in *reference seconds*: its wall time multiplied by
``NOMINAL_S / g``, where ``g`` is the mean gauge time around it.  On a host
running the gauge in ``NOMINAL_S`` a reference second is a wall second; a
change to quchain moves the wall time and not the gauge, so it moves the
reported time by the same factor.  The full report keeps the gauge samples
and the median scale factor.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: A round figure near the gauge's time on a 2-vCPU Xeon host; a fixed
#: constant, so reference seconds compare across commits.
NOMINAL_S = 0.025
#: Samples that end this close to an interval set its scale.
WINDOW_S = 0.5

_VEC = np.linspace(0.0, 1.0, 64) + 0.5j


def reference_task() -> float:
    """Fixed work calling no quchain code: small-array NumPy calls, whose
    cost is mostly interpreter and call overhead, as in the package.

    Interleaved with ``optimize`` and with ``compile_graph``+``emit``+``parse``
    on this host, its time correlated with theirs at 0.89 and 0.82 (log
    scale); a pure-Python loop of dict and float work correlated at 0.41 and
    0.04, so it is not part of the gauge.
    """
    v = _VEC.copy()
    for _ in range(1700):
        v = v * 0.999 + np.roll(v, 1) * 0.001
    return float(np.abs(v).sum())


class Gauge:
    """Timed gauge samples, each stamped with when it ended.

    The host's speed changes within a fraction of a second (successive
    samples correlate at 0.8, twenty samples apart at 0.3), so an interval is
    scaled by the samples taken within :data:`WINDOW_S` of it, and their mean
    rather than their median, because a job's time adds up the slow and the
    fast spells it spans.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, seconds)
        reference_task()  # warm-up, not recorded

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t = time.perf_counter()
            reference_task()
            end = time.perf_counter()
            self.samples.append((end, end - t))

    def factor(self, start: float, end: float) -> float:
        """Wall seconds to reference seconds for the interval [start, end]
        (perf_counter times); all samples if none falls near it."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return NOMINAL_S / statistics.fmean(near or [s for _, s in self.samples])

    def median(self) -> float:
        return statistics.median(s for _, s in self.samples) if self.samples else NOMINAL_S

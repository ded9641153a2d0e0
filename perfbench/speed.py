"""A fixed reference kernel that follows the machine's speed drift.

This machine's speed drifts by 20-60% in phases of seconds to minutes
(README).  A pass reads the kernel's time every half second, between
operations, and scales all its operation times by REFERENCE_S over the
pass's fastest reading: each figure becomes the operation's time at the
speed at which the kernel takes REFERENCE_S.  The kernel mixes the kinds
of work the program does: small dense linear algebra calls, numpy int64
array arithmetic, a pure-Python loop and Fraction arithmetic.  It does not
touch gesforge, so a change to the program moves the scaled times exactly
as much as the raw ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.010  # about the median fastest-reading of a pass on the reference machine
INTERVAL_S = 0.5

# Set-up is mostly page-cache reads, unmarshalling and dynamic loading,
# which the kernel does not follow.  It is scaled instead by the time the
# same pass took to start Python and import numpy, scipy and mpmath (work
# outside gesforge), over this figure: that time on the reference machine.
DEPENDENCIES_REFERENCE_S = 0.55


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((6, 6))
        self._sym = m + m.T
        self._ints = rng.integers(0, 1_000_003, size=150_000, dtype=np.int64)
        self._eigh = np.linalg.eigh  # bound now, so a tracer's wrapper stays out
        self._last = float("-inf")
        self.readings: list[float] = []

    def _kernel(self) -> None:
        for _ in range(150):
            self._eigh(self._sym)
        x = self._ints
        for _ in range(4):
            x = (x * 31 + 7) % 1_000_003
        total = 0
        for i in range(20_000):
            total += i * i % 7
        f = Fraction(1, 3)
        for i in range(300):
            f = (f * Fraction(i + 1, i + 2) + Fraction(1, i + 3)) % 7

    def read(self) -> None:
        """Record the median of three kernel times, robust to one hiccup."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        self.readings.append(statistics.median(times))
        self._last = time.perf_counter()

    def read_if_due(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.read()

    def scale(self) -> float:
        return REFERENCE_S / min(self.readings)

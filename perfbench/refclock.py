"""A fixed reference kernel, timed right after every op.

On a shared host the speed of a core drifts by 20-40 % over tens of seconds
as other tenants come and go, which moves raw op times from run to run by
more than any useful bound.  Dividing each op's time by the time of this
kernel, measured next to it, cancels most of that drift.  The kernel mixes
interpreter work with a LAPACK call, as floqmet does, and does not touch
floqmet, so a change to floqmet moves only the numerator.
"""
from __future__ import annotations

import time

import numpy as np

SHARE = 0.1      # reference time spent per op, as a share of the op's time
MAX_REPS = 1000


class ReferenceClock:
    def __init__(self):
        rng = np.random.default_rng(20260517)
        a = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self.matrix = a + a.conj().T
        self.last = self.sample(0.0)  # warm-up and first estimate

    def _kernel(self) -> int:
        total = 0
        for i in range(8000):
            total += i * i
        np.linalg.eigh(self.matrix)
        return total

    def sample(self, op_seconds: float) -> float:
        """Mean kernel time over about SHARE * op_seconds of repetitions."""
        reps = 1 if op_seconds == 0.0 else int(
            min(MAX_REPS, max(1, round(SHARE * op_seconds / self.last))))
        start = time.perf_counter()
        for _ in range(reps):
            self._kernel()
        self.last = (time.perf_counter() - start) / reps
        return self.last

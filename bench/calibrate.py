"""Calibration of timings against a fixed reference computation.

The benchmark shares a virtual machine's cores with other tenants.  When one
of them is busy, every computation on the core slows by up to 1.7 times, for
seconds or for minutes at a time, in CPU time as well as in wall time.  A run
cannot wait that out, so each measured step is timed next to
``reference_work``: a fixed computation that belongs to the benchmark, not to
the package, and that slows as much as the package's own code does.  A step's
calibrated time is its time scaled by ``REFERENCE_S`` over the mean of the
reference times taken just before and just after it, which reads as seconds
on the machine in ``README.md`` when no other tenant is busy.

Changing ``reference_work`` or ``REFERENCE_S`` changes every calibrated
figure; compare only runs made with the same calibration.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Time of reference_work on a quiet core of a 2-core Intel Xeon virtual
# machine (Python 3.11, numpy 2.4).
REFERENCE_S = 0.014

_LOOP_N = 100_000
_MATRICES = np.random.default_rng(20070412).integers(0, 2, size=(20, 24, 32),
                                                       dtype=np.uint8)


def reference_work() -> int:
    """An interpreter loop plus GF(2) row reductions of small fixed matrices,
    the same mix of bytecode and small numpy calls as the package's hot paths."""
    acc = 0
    for i in range(_LOOP_N):
        acc += i * i % 7
    for m in _MATRICES:
        a = m.copy()
        r = 0
        for c in range(a.shape[1]):
            pivots = np.flatnonzero(a[r:, c])
            if pivots.size == 0:
                continue
            k = r + pivots[0]
            if k != r:
                a[[r, k]] = a[[k, r]]
            rows = np.flatnonzero(a[:, c])
            a[rows[rows != r]] ^= a[r]
            r += 1
            if r == a.shape[0]:
                break
        acc += r
    return acc


class Calibrator:
    """Times ``reference_work`` between measured steps.

    ``factor()`` is called right after a step: it times the reference again
    and returns the scale for that step, ``REFERENCE_S`` over the mean of the
    reference times before and after it.
    """

    def __init__(self):
        self.reference_s: list[float] = []
        self._last = self._time_reference()

    def _time_reference(self) -> float:
        t0 = perf_counter()
        reference_work()
        elapsed = perf_counter() - t0
        self.reference_s.append(elapsed)
        return elapsed

    def factor(self) -> float:
        before, self._last = self._last, self._time_reference()
        return REFERENCE_S / ((before + self._last) / 2)

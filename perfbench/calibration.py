"""A fixed calibration kernel that measures the host's current speed.

The shared host this benchmark runs on changes speed by up to 1.5x within
seconds and drifts over minutes, for the same work.  The benchmark therefore
times the kernel below right before and right after every measured call and
expresses the call's time as a multiple of the kernel's time, which cancels
the host's speed at that moment.  The kernel never touches ``dimwit`` and
must not change between benchmark versions: its work is the yardstick.

Its mix follows the program's: element-wise loops over numpy complex scalars
(as in the pure-Python Jacobi sweep), small ``kron``/``matmul`` products (as
in operator assembly), and small LAPACK eigensolves.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Kernel seconds that define the normalised time scale: a normalised second
#: is the time in which the kernel would run ``1 / NOMINAL_S`` times.  The
#: value is the kernel's typical time on the host the bounds were set on,
#: so normalised figures read close to wall-clock ones there.
NOMINAL_S = 0.0035

_RNG = np.random.default_rng(20080205)
_C = _RNG.normal(size=(6, 6)) + 1j * _RNG.normal(size=(6, 6))
_C = _C + _C.conj().T
_H = _RNG.normal(size=(9, 9))
_H = _H + _H.T


def kernel() -> complex:
    acc = 0j
    for _ in range(24):
        for i in range(6):
            for j in range(6):
                acc += _C[i, j] * _C[j, i]
    for _ in range(40):
        acc += np.linalg.eigh(_H)[0][0]
        acc += (np.kron(_C[:2, :2], _C[2:4, 2:4]) @ _C[:4, :4])[0, 0]
    return acc


def _once() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


def sample() -> float:
    """Seconds for one run of the kernel: the median of three runs, so that
    a single interrupted run does not set the scale."""
    return sorted(_once() for _ in range(3))[1]


class Stopwatch:
    """Context manager timing its body in seconds and in kernel units: the
    body's time over the mean of kernel samples taken just before and just
    after it."""

    seconds = ratio = 0.0

    def __enter__(self):
        self._before = sample()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = perf_counter() - self._start
        self.ratio = self.seconds / (0.5 * (self._before + sample()))
        return False

"""Host speed, measured with a fixed kernel, for scaling timings.

The shared hosts this benchmark runs on change speed by up to ~2x in phases
lasting seconds to minutes: the vCPUs slow together, CPU time tracks wall
time, and no cycle counter is readable.  Raw wall times of one run then say
more about the phase it hit than about the program.

So the benchmark times a fixed kernel next to the program's work and scales
each timing by ``REFERENCE_S / kernel time``: a timing is reported as it would
read at the speed where the kernel takes ``REFERENCE_S``.  The kernel lives
here, uses only numpy and plain Python, and never calls ``blochsig``, so a
change to the program moves the scaled timings in full, while a change of
host phase moves the program and the kernel together and cancels out.

The kernel mixes what the workloads spend their time on: small complex
matrix products and an einsum contraction, each a numpy call on a few dozen
numbers, and scalar Python arithmetic in a loop.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median kernel time on a calm phase of a 2-vCPU "Intel(R) Xeon(R)
# Processor" host (Python 3.11, numpy 2.4, 1 BLAS thread).  Only a scale:
# scaled timings read as seconds on such a host.
REFERENCE_S = 0.0040
# Kernel repetitions per measurement; the median is taken.
REPS = 5

_RNG = np.random.default_rng(20050111)
_A = _RNG.standard_normal((9, 9)) + 1j * _RNG.standard_normal((9, 9))
_A = _A - _A.conj().T
_F = _RNG.standard_normal((8, 8, 8))
_V0 = _RNG.standard_normal(8)


def _kernel() -> float:
    x = np.eye(9, dtype=complex)
    v = _V0.copy()
    z = 0.3
    for _ in range(350):
        x = x + 1e-3 * (_A @ x - x @ _A)
        v = v + 1e-3 * np.einsum("ijk,j,k->i", _F, v, v)
        for _ in range(25):
            z = z + 0.01 * (1.0 - z * z)
    return float(np.abs(x).sum() + v.sum() + z)


def kernel_seconds() -> float:
    """Median time of ``REPS`` runs of the kernel, in seconds."""
    times = []
    for _ in range(REPS):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def factor(kernel_s: float) -> float:
    """Multiply a timing taken next to ``kernel_s`` by this to scale it."""
    return REFERENCE_S / kernel_s

"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the speed of one core changes by up to a factor of two
within seconds, and wall times taken minutes apart differ by as much.  The
benchmark times this kernel before and after every timed repetition and
set-up probe and divides each time by the mean kernel time around it, so the
drift cancels while a change to fracheat does not: the kernel calls no
fracheat code.  It mixes the kinds of work the workloads do: ``np.convolve``
at n = 3071 (the CG matvec), Cholesky solves at n = 199 through SciPy (the
noise ensemble), float formatting (the CSV writer) and a pure-Python loop
(orchestration, imports).

``REFERENCE_S`` converts the ratio back to seconds.  It is about the kernel's
median time on the machine the baseline was recorded on (2 vCPUs, Intel
Xeon, OpenBLAS 0.3.31 with one thread), so a normalised time reads as
seconds at that machine's typical speed.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

REFERENCE_S = 0.4

_rng = np.random.default_rng(0)
_signal = _rng.standard_normal(3071)
_kernel = np.concatenate((_signal[::-1], [0.0], _signal))
_b = _rng.standard_normal((199, 199))
_factor = scipy.linalg.cho_factor(_b @ _b.T + 199.0 * np.eye(199))
_rhs = _rng.standard_normal(199)
_floats = _rng.standard_normal(2000).tolist()


def kernel_s() -> float:
    """Wall time of one run of the reference kernel, in seconds."""
    t0 = time.perf_counter()
    for _ in range(32):
        np.convolve(_signal, _kernel)
    for _ in range(2400):
        scipy.linalg.cho_solve(_factor, _rhs)
    for _ in range(32):
        ",".join(repr(x) for x in _floats)
        ",".join(f"{x:.6g}" for x in _floats)
    total = 0
    for i in range(480_000):
        total += i * i
    return time.perf_counter() - t0

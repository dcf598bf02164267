"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark's machine is a shared host whose speed, in CPU time too, swings
by a quarter within seconds and drifts over minutes.  The closed loop runs
this kernel between ops, outside the timed ops, and scales each window's op
time by how long the kernel took in that window against ``REF_SECONDS``.  A
slow spell then stretches the ops and the kernel alike and cancels out.

The kernel is one cyclic Jacobi sweep over a fixed 10 x 10 complex Hermitian
matrix in plain numpy: Python-level loops over small array operations, the
same kind of work the program does, and none of the program's code.
"""

from __future__ import annotations

import time

import numpy as np

# CPU seconds of one ``kernel()`` call at reference speed: the median on a
# 2-core x86-64 VM (Python 3.11, numpy 2.4, one BLAS thread).  It only sets
# the scale in which speed-normalised figures read as seconds.
REF_SECONDS = 1.1e-3
# Reference-kernel CPU time the loop spends per CPU second of ops.
REF_SHARE = 0.03

_N = 10
_rng = np.random.default_rng(20240501)
_z = _rng.standard_normal((_N, _N)) + 1j * _rng.standard_normal((_N, _N))
_MATRIX = (_z + _z.conj().T) / 2.0


def kernel() -> np.ndarray:
    """One cyclic Jacobi sweep of two-sided complex rotations on ``_MATRIX``."""
    a = _MATRIX.copy()
    for p in range(_N - 1):
        for q in range(p + 1, _N):
            apq = a[p, q]
            theta = 0.5 * np.arctan2(2.0 * abs(apq), (a[q, q] - a[p, p]).real)
            c, s = np.cos(theta), np.sin(theta) * apq / abs(apq)
            col_p = a[:, p].copy()
            col_q = a[:, q]
            a[:, p] = c * col_p - np.conj(s) * col_q
            a[:, q] = s * col_p + c * col_q
            row_p = a[p, :].copy()
            row_q = a[q, :]
            a[p, :] = c * row_p - s * row_q
            a[q, :] = np.conj(s) * row_p + c * row_q
    return a


def timed(clock=time.process_time) -> float:
    """CPU seconds of one kernel call."""
    t0 = clock()
    kernel()
    return clock() - t0


def factor(samples) -> float:
    """How much slower than reference speed the machine ran while ``samples`` were taken."""
    return float(np.mean(samples)) / REF_SECONDS

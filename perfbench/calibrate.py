"""Host-speed calibration: a fixed exact-arithmetic kernel timed beside the
jobs.

On a shared host the speed of a CPU second moves by up to half from one
ten-second window to the next, and all of a run's jobs slow down together.
So the benchmark runs this kernel after every job and reports each job's
time scaled by ``REF_REP_S`` over the kernel's time per repetition measured
around that job: seconds at a fixed reference speed.  The kernel uses only
``fractions.Fraction`` and lists, no banachlim code, so a change to the
program does not move it, while a host slow-down moves it as it moves the
program (exact rational elimination and matrix-vector products are most
of what the program does).
"""

import time
from fractions import Fraction

# One repetition on the reference box (2-vCPU virtual machine, Python 3.11)
# at its median speed; only scales the reported figures.
REF_REP_S = 0.0028

_N = 9
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4)
            + (13 if i == j else 0) for j in range(_N)] for i in range(_N)]
_BOND_N = 16
_BOND = [[Fraction((i * 13 + j * 29) % 101 - 50, 1 + (i * 7 + j) % 60)
          for j in range(_BOND_N)] for i in range(_BOND_N)]
_VECTOR = [Fraction(i % 19 - 9, 1 + i % 9) for i in range(_BOND_N)]


def kernel():
    """Gaussian elimination of a fixed 9x9 rational matrix, then a dense
    16x16 rational matrix-vector product with larger entries: a small
    working set and a larger one, since a slow-down on a shared host does
    not hit both alike: on `stages` jobs either part alone left about 1.6
    times the residual spread of the two together."""
    A = [row[:] for row in _MATRIX]
    for k in range(_N):
        pivot_row = A[k]
        for i in range(k + 1, _N):
            row = A[i]
            f = row[k] / pivot_row[k]
            for j in range(k, _N):
                row[j] -= f * pivot_row[j]
    y = [sum((a * x for a, x in zip(row, _VECTOR)), Fraction(0))
         for row in _BOND]
    return A[-1][-1], y


def measure(reps):
    """CPU seconds taken by ``reps`` repetitions of the kernel."""
    t0 = time.process_time()
    for _ in range(reps):
        kernel()
    return time.process_time() - t0

"""Exact rational dense linear algebra: elimination, rank, solve, nullspace.

Matrices are tuples of row tuples of exact rationals; vectors are tuples.
Elimination is fraction-free Gauss-Jordan on integers (rows scaled by
their lcms, each update p row_i - f row_r divided by its gcd), so each row
is a nonzero multiple of the rational one; a rational is built only for an
entry a caller returns, as the integer over its row's pivot.

Exact data that are combined many times (generator matrices, facet normals,
grid lattices) also have a scaled form: a tuple of integers over one
positive denominator, the lcm of the entries' denominators.  Products and
sums of scaled data are integer operations, with no gcd per operation (the
rational kernels normalise one per operation); a rational is built once per
result, by dividing by the denominator.  The form reads only .numerator and
.denominator.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .scalar import Q, ZERO, ONE


def vec(xs):
    """xs as a tuple of exact rationals (Fractions pass through)."""
    return tuple(x if type(x) is Fraction else Q(x) for x in xs)


def mat(rows):
    return tuple(map(vec, rows))


def scaled(xs):
    """xs as (numerators, den): integers over one positive denominator, the
    lcm of the entries' denominators (((), 1) for no entries)."""
    den = math.lcm(*(x.denominator for x in xs))
    return tuple(x.numerator * (den // x.denominator) for x in xs), den


def scaled_rows(rows):
    """rows as (integer rows, den) over one common positive denominator."""
    flat, den = scaled([x for r in rows for x in r])
    it = iter(flat)
    return tuple(tuple(itertools.islice(it, len(r))) for r in rows), den


def unscale(nums, den):
    """The exact rationals n / den of a scaled vector."""
    return tuple(Q(n, den) for n in nums)


def mat_vec(A, x):
    return tuple(sum((a * b for a, b in zip(row, x)), ZERO) for row in A)


def mat_mul(A, B):
    Bt = list(zip(*B))
    return tuple(tuple(sum((a * b for a, b in zip(row, col)), ZERO)
                       for col in Bt) for row in A)


def transpose(A):
    return tuple(zip(*A))


def dot(x, y):
    return sum((a * b for a, b in zip(x, y)), ZERO)


def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(t, x):
    t = Q(t)
    return tuple(t * a for a in x)


def identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n))
                 for i in range(n))


def _rref(rows, ncols):
    """Gauss-Jordan on the first ncols columns, in integers; returns (rows,
    pivot columns).  Each row is a nonzero multiple of the row of the
    reduced row echelon form: row r < len(pivots) has the multiple at
    pivots[r].  Reads only .numerator and .denominator."""
    rows = [list(scaled(r)[0]) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow, p = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(row, prow)]
                g = math.gcd(*row)
                rows[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(A):
    return len(_rref(A, len(A[0]))[1]) if A else 0


def solve(A, b):
    """One exact solution x of A x = b, or None if inconsistent."""
    n = len(A[0]) if A else 0
    rows, pivots = _rref([tuple(A[i]) + (b[i],) for i in range(len(A))], n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    x = [ZERO] * n
    for row, c in zip(rows, pivots):
        x[c] = Q(row[n], row[c])
    return tuple(x)


def nullspace(A):
    """Basis (list of vectors) of the kernel of A."""
    n = len(A[0]) if A else 0
    rows, pivots = _rref(A, n)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [ZERO] * n
        v[f] = ONE
        for row, c in zip(rows, pivots):
            v[c] = Q(-row[f], row[c])
        basis.append(tuple(v))
    return basis


def inverse(A):
    n = len(A)
    rows, pivots = _rref([tuple(a) + tuple(int(i == j) for j in range(n))
                          for i, a in enumerate(A)], n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return tuple(tuple(Q(v, row[i]) for v in row[n:])
                 for i, row in enumerate(rows))


def column_space_basis(A):
    """Indices of a maximal linearly independent column subset."""
    return _rref(A, len(A[0]) if A else 0)[1]


def is_psd(S):
    """Exact positive-semidefiniteness of a symmetric rational matrix
    (LDL^T elimination; a zero pivot must have a zero row)."""
    S = [list(row) for row in S]
    n = len(S)
    for k in range(n):
        d = S[k][k]
        if d < 0:
            return False
        if d == 0:
            if any(S[k][j] != 0 for j in range(k, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = S[i][k] / d
            if f != 0:
                for j in range(k, n):
                    S[i][j] -= f * S[k][j]
    return True

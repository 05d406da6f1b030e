"""Exact rational dense linear algebra: elimination, rank, solve, nullspace.

Matrices are tuples of row tuples of exact rationals; vectors are tuples.
Elimination is plain Gaussian elimination over the rationals (the sizes in
this package are tiny).

Exact data that are combined many times (generator matrices, facet normals,
grid lattices) also have a scaled form: a tuple of backend integers over one
positive denominator, the lcm of the entries' denominators.  Products and
sums of scaled data are integer operations, with no gcd per operation (the
rational kernels normalise one per operation); a rational is built once per
result, by dividing by the denominator.  The form reads only .numerator and
.denominator, so gmpy2 mpq entries give mpz numerators.
"""

from __future__ import annotations

import itertools
import math

from .scalar import Q, RAT, ZERO, ONE


def vec(xs):
    """xs as a tuple of exact rationals (backend rationals pass through)."""
    return tuple(x if type(x) is RAT else Q(x) for x in xs)


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
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [inv * v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(A):
    if not A:
        return 0
    _, pivots = _rref(A, len(A[0]))
    return len(pivots)


def solve(A, b):
    """One exact solution x of A x = b, or None if inconsistent."""
    m = len(A)
    n = len(A[0]) if m else 0
    aug = [list(A[i]) + [Q(b[i])] for i in range(m)]
    rows, pivots = _rref(aug, n)
    for i in range(len(pivots), m):
        if rows[i][n] != 0:
            return None
    x = [ZERO] * n
    for r, c in enumerate(pivots):
        x[c] = rows[r][n]
    return tuple(x)


def nullspace(A):
    """Basis (list of vectors) of the kernel of A."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows, pivots = _rref(A, n)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * n
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def inverse(A):
    n = len(A)
    aug = [list(A[i]) + list(identity(n)[i]) for i in range(n)]
    rows, pivots = _rref(aug, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def column_space_basis(A):
    """Indices of a maximal linearly independent column subset."""
    _, pivots = _rref(A, len(A[0]) if A else 0)
    return pivots


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

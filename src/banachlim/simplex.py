"""Exact two-phase primal simplex with Bland's rule.

Solves min c.x subject to A x = b, x >= 0 over the rationals.  Bland's
anti-cycling pivot rule gives a termination guarantee and deterministic
output.  A small builder wraps free variables and inequality constraints.
"""

from __future__ import annotations

from .scalar import Q, ZERO, ONE

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPError(Exception):
    pass


def _pivot(T, basis, row, col):
    m = len(T) - 1
    piv = T[row][col]
    inv = ONE / piv
    Trow = T[row] = [inv * v for v in T[row]]
    # Only the pivot row's nonzero columns change the other rows.
    nonzero = [(j, v) for j, v in enumerate(Trow) if v != 0]
    for i in range(m + 1):
        Ti = T[i]
        f = Ti[col]
        if i != row and f != 0:
            for j, v in nonzero:
                Ti[j] -= f * v
    basis[row] = col


def _simplex_core(T, basis, ncols):
    """Run Bland-rule pivots on tableau T (last row = reduced costs)."""
    m = len(T) - 1
    while True:
        cost = T[m]
        col = next((j for j in range(ncols) if cost[j] < 0), None)
        if col is None:
            return OPTIMAL
        row = None
        best = None
        for i in range(m):
            a = T[i][col]
            if a > 0:
                ratio = T[i][-1] / a
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[row]):
                    best, row = ratio, i
        if row is None:
            return UNBOUNDED
        _pivot(T, basis, row, col)


def solve_standard(c, A, b):
    """min c.x, A x = b, x >= 0.  Returns (status, x, value)."""
    m = len(A)
    n = len(c)
    c = [Q(v) for v in c]
    A = [[Q(v) for v in row] for row in A]
    b = [Q(v) for v in b]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]

    # Phase 1 tableau: columns = structural | artificial | rhs.
    total = n + m
    T = [A[i] + [ONE if j == i else ZERO for j in range(m)] + [b[i]]
         for i in range(m)]
    basis = [n + i for i in range(m)]
    costrow = [ZERO] * (total + 1)
    for i in range(m):
        costrow = [cv - av for cv, av in zip(costrow, T[i])]
    for j in range(n, total):
        costrow[j] = ZERO  # artificials are basic with zero reduced cost
    T.append(costrow)
    status = _simplex_core(T, basis, total)
    if status == UNBOUNDED:  # cannot happen in phase 1
        raise LPError("phase-1 unbounded")
    if T[m][-1] < 0:
        return INFEASIBLE, None, None

    # Drive remaining artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is not None:
                _pivot(T, basis, i, col)

    # Drop rows still basic in an artificial (redundant constraints),
    # then rebuild the phase-2 cost row.
    keep = [i for i in range(m) if basis[i] < n]
    T2 = [[T[i][j] for j in range(n)] + [T[i][-1]] for i in keep]
    basis2 = [basis[i] for i in keep]
    cost = [Q(v) for v in c] + [ZERO]
    for i, bi in enumerate(basis2):
        f = cost[bi]
        if f != 0:
            cost = [a - f * bv for a, bv in zip(cost, T2[i])]
    T2.append(cost)
    status = _simplex_core(T2, basis2, n)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [ZERO] * n
    for i, bi in enumerate(basis2):
        x[bi] = T2[i][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), ZERO)
    return OPTIMAL, tuple(x), value


class LinearProgram:
    """Incremental LP model: free/nonnegative vars, eq/le constraints.

    Variables are integer handles.  Free variables are split internally.
    """

    def __init__(self):
        self._vars = []          # per handle: column index, free flag
        self._ncols = 0
        self._rows = []          # (coeff dict col->Q, rhs) equalities
        self._obj = {}

    def var(self, free=False):
        h = len(self._vars)
        self._vars.append((self._ncols, free))
        self._ncols += 2 if free else 1
        return h

    def _expand(self, coeffs):
        out = {}
        for h, cv in coeffs.items():
            cv = Q(cv)
            col, free = self._vars[h]
            out[col] = out.get(col, ZERO) + cv
            if free:
                out[col + 1] = out.get(col + 1, ZERO) - cv
        return out

    def add_eq(self, coeffs, rhs):
        self._rows.append((self._expand(coeffs), Q(rhs)))

    def add_le(self, coeffs, rhs):
        row = self._expand(coeffs)
        slack = self._ncols
        self._ncols += 1
        row[slack] = ONE
        self._rows.append((row, Q(rhs)))

    def minimize(self, coeffs):
        self._obj = dict(coeffs)

    def solve(self):
        n = self._ncols
        A = []
        b = []
        for row, rhs in self._rows:
            A.append([row.get(j, ZERO) for j in range(n)])
            b.append(rhs)
        c = [ZERO] * n
        for col, cv in self._expand(self._obj).items():
            c[col] += cv
        status, x, value = solve_standard(c, A, b)
        if status != OPTIMAL:
            return status, None, None
        vals = []
        for col, free in self._vars:
            vals.append(x[col] - x[col + 1] if free else x[col])
        return OPTIMAL, tuple(vals), value

"""Linear maps between normed spaces.

Operator norms are exact whenever one side of the duality is polytopal:
over the extreme points of the source ball (max of the target norm) or of
the target dual ball (max of the source dual norm of the pullback),
whichever is expected to list fewer and can be listed.  Either way the
witness is a source vector that attains the norm.  The pure l2 -> l2
case gets a certified bracket; when neither side can be enumerated,
NormSpecError is raised.

T is an isometric embedding exactly when T* is a quotient map, so both
verdicts are one exact check: ||T|| <= 1 and a map C (T, or T*) covers its
target ball, read at that ball's extreme points off the gauge of the image
ball conv(+-C e) (space.hull_gauge).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from operator import mul

from . import linalg, space
from .scalar import Q, ZERO, ONE, from_float, sqrt_bracket, to_float
from .space import (NormSpecError, NormedSpace, _canonical_sign,
                    ball_extreme_points, ball_form, extreme_point_estimate,
                    hull_gauge, is_l2, lp_space, min_norm_lp, norm_eval,
                    norm_eval_sq)

EXACT = "exact"
SAMPLED_BOUND = "sampled-bound"


class RangeError(ValueError):
    """Target vector is not in the range of the map."""


@dataclass(frozen=True)
class LinearMap:
    """T : source -> target, given by its rows (target.dim x source.dim) or
    in coordinate form: coords holds, per target coordinate, the source
    index it copies (no index twice), or None for a zero row.  A coordinate
    map is applied by gathering and builds .matrix only when it is read."""
    source: NormedSpace
    target: NormedSpace
    rows: tuple = None
    coords: tuple = None

    def __post_init__(self):
        if self.coords is None:
            fits = len(self.rows) == self.target.dim and all(
                len(r) == self.source.dim for r in self.rows)
        else:
            used = [c for c in self.coords if c is not None]
            fits = (len(self.coords) == self.target.dim
                    and len(set(used)) == len(used)
                    and all(0 <= c < self.source.dim for c in used))
        if not fits:
            raise ValueError("map shape does not match source/target dims")

    @cached_property
    def matrix(self):
        if self.coords is None:
            return self.rows
        return _unit_rows(self.coords, self.source.dim)

    def __call__(self, x):
        if len(x) != self.source.dim:
            raise ValueError("vector length does not match the source dim")
        if self.coords is None:
            return linalg.mat_vec(self.rows, x)
        return tuple(ZERO if c is None else x[c] for c in self.coords)

    def mat_mul(self, G):
        """T G for a matrix G with source.dim rows (a row gather on a
        coordinate map)."""
        if self.coords is None:
            return linalg.mat_mul(self.rows, G)
        zero = (ZERO,) * len(G[0]) if G else ()
        return tuple(zero if c is None else G[c] for c in self.coords)


def _unit_rows(coords, n):
    return tuple(tuple(ONE if j == c else ZERO for j in range(n))
                 for c in coords)


def linear_map(source, target, rows) -> LinearMap:
    """The map with these rows, in coordinate form when every row is zero
    or a unit vector and no two are the same unit vector."""
    rows = linalg.mat(rows)
    coords = tuple(next((j for j, v in enumerate(r) if v), None)
                   for r in rows)
    used = [c for c in coords if c is not None]
    if len(set(used)) == len(used) and _unit_rows(coords, source.dim) == rows:
        return LinearMap(source, target, coords=coords)
    return LinearMap(source, target, rows)


@dataclass(frozen=True)
class MapVerdict:
    verdict: bool
    witness: tuple = None
    certificate_kind: str = EXACT
    reason: str = ""


@dataclass(frozen=True)
class OpNormResult:
    value: object              # rational (or rational shadow for l2 values)
    lower: object
    upper: object
    certificate_kind: str
    witness: tuple = None
    value_sq: object = None    # exact square when the value is an l2 norm


def adjoint(T: LinearMap) -> LinearMap:
    """T* : target* -> source*, transposed matrix (the inverted index map
    of a coordinate map)."""
    if T.coords is None:
        return LinearMap(T.target.dual, T.source.dual,
                         linalg.transpose(T.rows))
    inverse = {c: i for i, c in enumerate(T.coords) if c is not None}
    return LinearMap(T.target.dual, T.source.dual,
                     coords=tuple(map(inverse.get, range(T.source.dim))))


def _source_images(C: LinearMap):
    """(points, den, images, k): C's source ball record and k C(p / den)."""
    points, den = space.ball_extreme_record(C.source)
    if C.coords is not None:
        return points, den, [tuple(0 if c is None else p[c] for c in C.coords)
                             for p in points], den
    A, a = linalg.scaled_rows(C.rows)
    return points, den, [tuple(sum(map(mul, r, p)) for r in A)
                         for p in points], den * a


def _opnorm_over_vertices(T: LinearMap):
    """max ||T v|| over the source ball, off integer images (l2: squares)."""
    points, den, images, k = _source_images(T)
    f, s = T.target.scaled_norm
    vals = [f(y) for y in images]
    witness = linalg.unscale(points[vals.index(max(vals))], den)
    best = Q(max(vals), s * k ** (2 if is_l2(T.target) else 1))
    if is_l2(T.target):
        lo, hi = sqrt_bracket(best)
        return OpNormResult((lo + hi) / 2, lo, hi, EXACT, witness, best)
    return OpNormResult(best, best, best, EXACT, witness, best * best)


def _weighted_gram(T: LinearMap):
    """B^T B for B = diag(wt) A diag(1/ws), the matrix with the same norm
    in unweighted l2 (T between weighted l2 spaces)."""
    ws = T.source.spec.weights
    wt = T.target.spec.weights
    B = tuple(tuple(wt[i] * T.matrix[i][j] / ws[j]
                    for j in range(T.source.dim))
              for i in range(T.target.dim))
    return linalg.mat_mul(linalg.transpose(B), B)


def _gram_at_most(S, s):
    """Exact check s I - S >= 0, i.e. every eigenvalue of S is <= s."""
    return linalg.is_psd(tuple(
        tuple((s if i == j else ZERO) - S[i][j] for j in range(len(S)))
        for i in range(len(S))))


_L2_GAP = Q(1, 10**10)


def _opnorm_l2_l2(T: LinearMap):
    """Largest singular value of the weighted matrix, certified bracket.

    The lower end is the exact Rayleigh quotient of S = B^T B at its float
    top eigenvector z (the witness is W^-1 z); hi = lo + _L2_GAP/2 is proved
    by the exact check hi^2 I - S >= 0.  Where that fails, it also proves
    the norm exceeds hi, and the bracket is bisected on the check."""
    S = _weighted_gram(T)
    if not S:                                  # a zero-dimensional side
        return OpNormResult(ZERO, ZERO, ZERO, SAMPLED_BOUND)
    import numpy as np
    Sf = np.array([[to_float(v) for v in row] for row in S], dtype=float)
    z = tuple(from_float(float(v)) for v in np.linalg.eigh(Sf)[1][:, -1])
    rayleigh = linalg.dot(z, linalg.mat_vec(S, z)) / linalg.dot(z, z)
    lo = sqrt_bracket(rayleigh)[0]
    hi = lo + _L2_GAP / 2
    if not _gram_at_most(S, hi * hi):
        lam_cap = sum((abs(v) for row in S for v in row), ZERO) + ONE
        lo, hi = hi, sqrt_bracket(lam_cap)[1]
        while hi - lo >= _L2_GAP:
            mid = (lo + hi) / 2
            if _gram_at_most(S, mid * mid):
                hi = mid
            else:
                lo = mid
    witness = tuple(zj / wj for zj, wj in zip(z, T.source.spec.weights))
    return OpNormResult((lo + hi) / 2, lo, hi, SAMPLED_BOUND, witness, None)


def _route_norm(T: LinearMap):
    """(result, phi) through the ball expected to list fewer extreme points
    (the other one when it is above the cap): the source ball, ||T|| = max
    ||T x|| over it, phi None; or the target dual ball, ||T|| = max
    ||T* psi||_* over it, the witness the best psi and phi = T* psi."""
    # A tie goes to the dual route: a primal pass into a V-polytope target
    # above dimension 4 solves one LP per point.
    routes = sorted((n, primal) for n, primal in (
        (extreme_point_estimate(T.target.dual), False),
        (extreme_point_estimate(T.source), True)) if n is not None)
    err = None
    for _, primal in routes:
        try:
            S = T if primal else adjoint(T)
            res = _opnorm_over_vertices(S)
            return res, None if primal else S(res.witness)
        except NormSpecError as e:   # above the enumeration cap
            err = e
    raise err


def _with_source_witness(T: LinearMap, res, phi) -> OpNormResult:
    """res, its dual-route witness made a source vector x, ||x|| = 1, with
    phi.x = v, v the value: ||T x|| >= psi(T x) = v = ||T||.  x is the first
    listed source extreme point maximising phi.x (the max is ||T* psi||_*)
    for generators and for rows up to the facet dimension, else the
    least-norm x with phi.x = v.  The zero map has no witness."""
    if phi is None:
        return res
    form = ball_form(T.source.spec)
    if not res.value_sq:
        x = None
    elif form and (form[0] == "gens" or T.source.dim <= space._FACET_DIM):
        x = max(ball_extreme_points(T.source),
                key=lambda v: linalg.dot(phi, v))
    else:
        row = LinearMap(T.source, lp_space(1, 1), (phi,))
        x = min_norm_preimage(row, (res.value,))[0]
    return replace(res, witness=x)


def operator_norm(T: LinearMap) -> OpNormResult:
    """Exact unless pure l2 -> l2 (a certified bracket there); the witness
    is a source vector that attains the norm."""
    if is_l2(T.source) and is_l2(T.target):
        return _opnorm_l2_l2(T)
    return _with_source_witness(T, *_route_norm(T))


def lipschitz_verdict(T: LinearMap) -> MapVerdict:
    """Exact ||T|| <= 1 verdict (polytopal routes, and pure l2 -> l2 via an
    exact PSD check); when it fails, the witness is operator_norm's, taken
    from the same route."""
    if is_l2(T.source) and is_l2(T.target):
        if _gram_at_most(_weighted_gram(T), ONE):
            return MapVerdict(True)
        witness = _opnorm_l2_l2(T).witness
    else:
        res, phi = _route_norm(T)
        if res.value_sq <= 1:
            return MapVerdict(True)
        witness = _with_source_witness(T, res, phi).witness
    return MapVerdict(False, witness=witness, reason="operator norm exceeds 1")


def is_one_lipschitz(T: LinearMap) -> bool:
    """The verdict of lipschitz_verdict."""
    return lipschitz_verdict(T).verdict


def in_range(T: LinearMap, v) -> bool:
    cols = linalg.transpose(T.matrix)
    return linalg.rank(list(cols) + [linalg.vec(v)]) == linalg.rank(cols)


def is_surjective(T: LinearMap) -> bool:
    return linalg.rank(T.matrix) == T.target.dim


def is_injective(T: LinearMap) -> bool:
    return linalg.rank(T.matrix) == T.source.dim


def min_norm_preimage(T: LinearMap, v):
    """(u*, value) with T u* = v and ||u*|| minimal.  Exact LP for polytopal
    source norms; exact normal equations for l2 (value is then a rational
    shadow of sqrt; its square is exact)."""
    v = linalg.vec(v)
    if len(v) != T.target.dim:
        raise ValueError("target vector has wrong dimension")
    if not in_range(T, v):
        raise RangeError("vector is not in the range of the map")
    spec = T.source.spec
    if is_l2(T.source):
        # Minimize ||W u||_2 s.t. T u = v: z = W u is the least-norm solution
        # of M z = v, M = T W^-1, so z = M^T y for any y with M M^T y = v
        # (consistent, as v is in the range; such y differ in ker M^T).
        Mt = tuple(tuple(row[j] / w for row in T.matrix)
                   for j, w in enumerate(spec.weights))
        y = linalg.solve(linalg.mat_mul(linalg.transpose(Mt), Mt), v)
        u = tuple(z / w for z, w in zip(linalg.mat_vec(Mt, y), spec.weights))
        return u, norm_eval(T.source, u)
    res = min_norm_lp(spec, T.matrix, v)
    if res is None:
        raise RangeError("preimage LP infeasible")
    value, u = res
    return u, value


def quotient_norm(T: LinearMap, v):
    """Quotient norm of v under T (requires surjective T)."""
    if not is_surjective(T):
        raise ValueError("quotient norm requires a surjective map")
    _, value = min_norm_preimage(T, v)
    return value


def _min_preimage_norm_sq(C: LinearMap):
    """Exact square of the minimal preimage norm under a surjective C, on
    its target: the gauge of the image ball conv(+-C e) over the listed
    source-ball extreme points e (k times that of their integer images),
    else that of the least-norm preimage (l2 normal equations, or the LP)."""
    try:
        _, _, images, k = _source_images(C)
    except NormSpecError:   # l2 source, or a rows-form one above the cap
        return lambda v: norm_eval_sq(C.source, min_norm_preimage(C, v)[0])
    gauge = hull_gauge(dict.fromkeys(
        _canonical_sign(w) for w in images if any(w)), C.target.dim)
    return lambda v: (k * gauge(v)) ** 2


def _covering_verdict(T: LinearMap, C: LinearMap, reason, lip=None):
    """||T|| <= 1 (lip: its lipschitz_verdict, when known), and the
    surjective C (T, or T*) covers its target ball: every listed extreme
    point of it has a preimage of norm <= 1 (enough by convexity; a listed
    point that is not extreme is covered too)."""
    lip = lipschitz_verdict(T) if lip is None else lip
    if not lip.verdict:
        return lip
    norm_sq = _min_preimage_norm_sq(C)
    for v in ball_extreme_points(C.target):
        if norm_sq(v) > 1:
            return MapVerdict(False, witness=v, reason=reason)
    return MapVerdict(True)


def is_quotient_map(T: LinearMap, lip=None) -> MapVerdict:
    """Surjective, 1-Lipschitz, and T covers the target ball: T maps the
    source ball onto it.  lip, when given, must be lipschitz_verdict(T); a
    caller that already holds it saves recomputing the operator norm."""
    if is_l2(T.target):
        raise NormSpecError("quotient verdict needs a polytopal target ball")
    if not is_surjective(T):
        return MapVerdict(False, reason="not surjective")
    return _covering_verdict(T, T, "min preimage norm != target norm", lip)


def is_isometric_embedding(T: LinearMap) -> MapVerdict:
    """Injective, 1-Lipschitz, and every source dual-ball extreme point
    extends through T to a functional in the target dual ball (Hahn-Banach
    made computational): the adjoint T*, surjective since T is injective,
    must cover the source dual ball."""
    if not is_injective(T):
        return MapVerdict(False, reason="not injective")
    if is_l2(T.source) and is_l2(T.target):
        # Isometry iff the weighted matrix has orthonormal columns.
        ok = _weighted_gram(T) == linalg.identity(T.source.dim)
        return MapVerdict(ok, reason="" if ok else "columns not orthonormal")
    if is_l2(T.source):
        raise NormSpecError("isometric-embedding verdict needs a polytopal "
                            "source ball (or pure l2 -> l2)")
    return _covering_verdict(T, adjoint(T), "dual extension needs norm > 1")

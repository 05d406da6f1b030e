"""Linear maps between normed spaces.

Operator norms are exact whenever one side of the duality is polytopal:
either the source ball's extreme points are enumerable (max of the target
norm over them) or the target dual ball's are (max of the source dual norm
of the pullback).  The pure l2 -> l2 case uses certified power iteration;
anything else gets an honest (lower, upper) bracket.

Quotient and isometric-embedding verdicts are exact equality-of-norms
claims, checked at ball extreme points through the gauge of the image of a
unit ball (the minimal preimage norm): a maximum over the image's facet
normals where those can be enumerated, an exact LP per extreme point
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .scalar import Q, ZERO, ONE, format_scalar, parse_scalar, sqrt_bracket, to_float
from .space import (LpNorm, NormSpecError, NormedSpace, _canonical_sign,
                    _halfspace_vertices, ball_extreme_points, ball_form,
                    dual_space, min_norm_lp, norm_eval, norm_eval_sq,
                    vertex_enum_dim_cap)

EXACT = "exact"
SAMPLED_BOUND = "sampled-bound"


class RangeError(ValueError):
    """Target vector is not in the range of the map."""


@dataclass(frozen=True)
class LinearMap:
    source: NormedSpace
    target: NormedSpace
    matrix: tuple      # target.dim rows x source.dim cols

    def __post_init__(self):
        if len(self.matrix) != self.target.dim or any(
                len(r) != self.source.dim for r in self.matrix):
            raise ValueError("matrix shape does not match source/target dims")

    def __call__(self, x):
        return linalg.mat_vec(self.matrix, x)


def linear_map(source, target, rows) -> LinearMap:
    return LinearMap(source, target, linalg.mat(rows))


def compose(S: LinearMap, T: LinearMap) -> LinearMap:
    """S after T."""
    return LinearMap(T.source, S.target, linalg.mat_mul(S.matrix, T.matrix))


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


def _is_l2(space: NormedSpace) -> bool:
    return isinstance(space.spec, LpNorm) and space.spec.p == "2"


def adjoint(T: LinearMap) -> LinearMap:
    """T* : target* -> source*, transposed matrix."""
    return LinearMap(dual_space(T.target), dual_space(T.source),
                     linalg.transpose(T.matrix))


def _opnorm_over_vertices(T: LinearMap, vertices):
    best = None
    witness = None
    best_sq = None
    if _is_l2(T.target):
        for v in vertices:
            s = norm_eval_sq(T.target, T(v))
            if best_sq is None or s > best_sq:
                best_sq, witness = s, v
        lo, hi = sqrt_bracket(best_sq)
        return OpNormResult((lo + hi) / 2, lo, hi, EXACT, witness, best_sq)
    for v in vertices:
        n = norm_eval(T.target, T(v))
        if best is None or n > best:
            best, witness = n, v
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


def _opnorm_l2_l2(T: LinearMap, gap=Q(1, 10**10)):
    """Largest singular value of the weighted matrix, certified bracket.

    Power-iterates in floats on S = B^T B.  The lower end is an exact
    Rayleigh quotient.  The residual bound only locates some eigenvalue of
    S, which need not be the largest when the start vector misses the top
    singular vector, so the upper end is proved with the exact check
    hi^2 I - S >= 0.  Where that check fails, it also proves the norm
    exceeds hi, and the bracket is found again by bisection on the check.
    """
    S = _weighted_gram(T)
    n = T.source.dim
    import numpy as np
    Sf = np.array([[to_float(v) for v in row] for row in S], dtype=float)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n)
    lam_lo = ZERO
    lam_cap = lam_hi = sum((abs(v) for row in S for v in row), ZERO) + ONE
    witness = None
    for _ in range(300):
        y = Sf @ x
        nrm = np.linalg.norm(y)
        if nrm == 0:
            break
        x = y / nrm
        xq = tuple(parse_scalar(format(float(v), ".17g")) for v in x)
        xx = linalg.dot(xq, xq)
        if xx == 0:
            continue
        Sx = linalg.mat_vec(S, xq)
        rho = linalg.dot(xq, Sx) / xx                      # <= lam_max
        resid_sq = linalg.dot(
            linalg.vec_sub(Sx, linalg.vec_scale(rho, xq)),
            linalg.vec_sub(Sx, linalg.vec_scale(rho, xq)))
        _, res_hi = sqrt_bracket(resid_sq / xx)
        if rho > lam_lo:
            lam_lo, witness = rho, xq
        lam_hi = min(lam_hi, rho + res_hi)                 # Weyl bound
        lo_s = sqrt_bracket(max(lam_lo, ZERO))[0]
        hi_s = sqrt_bracket(lam_hi)[1]
        if hi_s - lo_s < gap:
            break
    lo_s = sqrt_bracket(max(lam_lo, ZERO))[0]
    hi_s = sqrt_bracket(lam_hi)[1]
    if not _gram_at_most(S, hi_s * hi_s):
        lo_s, hi_s = hi_s, sqrt_bracket(lam_cap)[1]
        while hi_s - lo_s >= gap:
            mid = (lo_s + hi_s) / 2
            if _gram_at_most(S, mid * mid):
                hi_s = mid
            else:
                lo_s = mid
    return OpNormResult((lo_s + hi_s) / 2, lo_s, hi_s, SAMPLED_BOUND,
                        witness, None)


def _ext_cost(space: NormedSpace):
    """Rough extreme-point count used to pick the cheaper exact side
    (2^dim is the H-polytope worst case)."""
    form = ball_form(space.spec)
    if form is None:
        return None
    kind, B = form
    return 2 * len(B) if kind == "gens" else 2 ** space.dim


def _attaining_input(source: NormedSpace, phi):
    """Unit-ball vector x with phi(x) = ||phi||_* (lp sources only; used to
    turn a dual-route witness into a norm-attaining input)."""
    spec = source.spec
    if not isinstance(spec, LpNorm):
        return None
    w = spec.weights
    if spec.p == "inf":
        return tuple((ONE if f >= 0 else -ONE) / wi for f, wi in zip(phi, w))
    if spec.p == "1":
        j = max(range(len(phi)), key=lambda k: abs(phi[k]) / w[k])
        x = [ZERO] * len(phi)
        x[j] = (ONE if phi[j] >= 0 else -ONE) / w[j]
        return tuple(x)
    return None


def operator_norm(T: LinearMap) -> OpNormResult:
    """Exact when either the source ball or the target dual ball is
    polytopal (||T|| = max ||T x|| over source vertices = max ||T* psi||
    over target dual vertices); certified bracket for pure l2 -> l2."""
    if _is_l2(T.source) and _is_l2(T.target):
        return _opnorm_l2_l2(T)
    routes = []
    cs = _ext_cost(T.source)
    if cs is not None:
        routes.append((cs, "primal"))
    ct = _ext_cost(dual_space(T.target))
    if ct is not None:
        routes.append((ct, "dual"))
    routes.sort()
    err = None
    for _, route in routes:
        try:
            if route == "primal":
                return _opnorm_over_vertices(T, ball_extreme_points(T.source))
            Tadj = adjoint(T)
            res = _opnorm_over_vertices(Tadj,
                                        ball_extreme_points(Tadj.source))
            x = _attaining_input(T.source, Tadj(res.witness))
            return OpNormResult(res.value, res.lower, res.upper,
                                res.certificate_kind, x or res.witness,
                                res.value_sq)
        except NormSpecError as e:   # enumeration cap; try the other side
            err = e
    raise err


def is_one_lipschitz(T: LinearMap) -> bool:
    """Exact ||T|| <= 1 verdict (polytopal routes, and pure l2 -> l2 via an
    exact PSD check)."""
    if _is_l2(T.source) and _is_l2(T.target):
        return _gram_at_most(_weighted_gram(T), ONE)
    return operator_norm(T).value_sq <= 1


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
    n = T.source.dim
    if isinstance(spec, LpNorm) and spec.p == "2":
        # Minimize ||W u||_2 s.t. T u = v: substitute z = W u, minimize
        # ||z||_2 with (T W^-1) z = v; z* = M^T (M M^T)^+ v on the row space.
        M = tuple(tuple(T.matrix[i][j] / spec.weights[j] for j in range(n))
                  for i in range(T.target.dim))
        # Solve via least-norm: z = M^T y, M M^T y = v (restrict to
        # independent rows for rank-deficient M).
        rows = linalg.column_space_basis(linalg.transpose(M))
        Mr = tuple(M[i] for i in rows)
        vr = tuple(v[i] for i in rows)
        G = linalg.mat_mul(Mr, linalg.transpose(Mr))
        y = linalg.solve(G, vr)
        z = linalg.mat_vec(linalg.transpose(Mr), y)
        u = tuple(z[j] / spec.weights[j] for j in range(n))
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


def _image_gauge(T: LinearMap):
    """Exact gauge of T(B_src) = conv(+-T e) over the source-ball extreme
    points e, as a function on the target; None when that hull cannot be
    enumerated (target dimension above the vertex-enumeration cap, or a
    source ball that ball_extreme_points refuses, l2 included).  T must be
    surjective.  The hull's facet normals are the vertices of its polar
    {psi : |psi . T e| <= 1}, so the gauge at v is the largest psi . v over
    them: the min_norm_preimage value at v, without an LP."""
    if T.target.dim > vertex_enum_dim_cap():
        return None
    try:
        points = ball_extreme_points(T.source)
    except NormSpecError:
        return None
    rows = {_canonical_sign(w) for w in map(T, points)
            if any(x != 0 for x in w)}
    facets = _halfspace_vertices(
        [r for f in rows for r in (f, tuple(-x for x in f))], T.target.dim)
    return lambda v: max(linalg.dot(f, v) for f in facets)


def is_quotient_map(T: LinearMap) -> MapVerdict:
    """Surjective, 1-Lipschitz, and min preimage norm <= 1 on every listed
    target ball extreme point (sufficient by convexity of the quotient
    norm; a listed point that is not extreme has norm < 1 and is covered
    too).  The min preimage norm is the gauge of the image of the source
    ball, read off its facets when they can be enumerated, else an exact
    LP."""
    if _is_l2(T.target):
        raise NormSpecError("quotient verdict needs a polytopal target ball")
    if not is_surjective(T):
        return MapVerdict(False, reason="not surjective")
    res = operator_norm(T)
    if res.certificate_kind != EXACT:
        raise NormSpecError("quotient verdict needs an exact operator norm")
    if res.value_sq is not None and res.value_sq > 1:
        return MapVerdict(False, witness=res.witness,
                          reason="operator norm exceeds 1")
    gauge = _image_gauge(T)
    for v in ball_extreme_points(T.target):
        if gauge is not None:
            ok = gauge(v) <= 1
        elif _is_l2(T.source):
            u, _ = min_norm_preimage(T, v)
            ok = norm_eval_sq(T.source, u) <= 1
        else:
            ok = min_norm_preimage(T, v)[1] <= 1
        if not ok:
            return MapVerdict(False, witness=v,
                              reason="min preimage norm != target norm")
    return MapVerdict(True)


def is_isometric_embedding(T: LinearMap) -> MapVerdict:
    """Injective, 1-Lipschitz, and every source dual-ball extreme point
    extends through T to a functional in the target dual ball (Hahn-Banach
    made computational): the adjoint T* must cover the source dual ball,
    checked as in is_quotient_map on the gauge of T*(B_{target*})."""
    if not is_injective(T):
        return MapVerdict(False, reason="not injective")
    if _is_l2(T.source) and _is_l2(T.target):
        # Isometry iff the weighted matrix has orthonormal columns.
        ok = _weighted_gram(T) == linalg.identity(T.source.dim)
        return MapVerdict(ok, reason="" if ok else "columns not orthonormal")
    if _is_l2(T.source):
        raise NormSpecError("isometric-embedding verdict needs a polytopal "
                            "source ball (or pure l2 -> l2)")
    res = operator_norm(T)
    if res.certificate_kind != EXACT:
        raise NormSpecError("isometric-embedding verdict needs an exact "
                            "operator norm")
    if res.value_sq is not None and res.value_sq > 1:
        return MapVerdict(False, witness=res.witness,
                          reason="operator norm exceeds 1")
    Tadj = adjoint(T)
    gauge = _image_gauge(Tadj)
    for phi in ball_extreme_points(dual_space(T.source)):
        # Need psi in the target dual ball with T* psi = phi.
        if gauge is not None:
            value = gauge(phi)
        else:
            try:
                _, value = min_norm_preimage(Tadj, phi)
            except RangeError:
                return MapVerdict(False, witness=phi,
                                  reason="dual functional does not extend")
        if value > 1:
            return MapVerdict(False, witness=phi,
                              reason="dual extension needs norm > 1")
    return MapVerdict(True)


# ---------------------------------------------------------------------------
# JSON wire format

def map_to_json(T: LinearMap, source_label=None, target_label=None):
    return {"source": source_label or T.source.label,
            "target": target_label or T.target.label,
            "matrix": [[format_scalar(v) for v in row] for row in T.matrix]}


def map_from_json(obj, spaces) -> LinearMap:
    """spaces: mapping from label to NormedSpace."""
    src = spaces[obj["source"]]
    tgt = spaces[obj["target"]]
    rows = tuple(tuple(parse_scalar(v) for v in row)
                 for row in obj["matrix"])
    return LinearMap(src, tgt, rows)

"""Finite-dimensional normed spaces with exactly computable norms.

Three norm representations: weighted lp for p in {1, 2, inf}, H-polytope
(unit ball cut out by functionals, norm = max |phi_i(x)|) and V-polytope
(unit ball conv(+-v_j), norm = gauge).  A ball given by rows is enumerated
once per row list and cached as one record: integer vertices over one
denominator and a facet flag per row.  Two fixed limits govern it.  Up to
dimension _FACET_DIM (4) that enumeration decides which rows (for
generators, on the polar) a polytope space keeps, and a V-polytope norm is
the largest psi.x over the cached facet normals psi (the vertices of its
polar); above it, each is one exact LP per candidate or evaluation.  Up to
_VERTEX_CAP (8) hull_gauge reads a one-off ball, evaluated at a batch of
points, off its facets, and ball_extreme_points lists a row ball's
vertices from the cached enumeration; above it they take LPs and raise,
respectively.  So extremes of a linear or convex function over a ball are
maxima over a finite list, with no LP.  Every exact LP that minimizes a
polytopal norm under linear equations is built by min_norm_lp.

All polytope geometry is exact (the enumeration runs on integers); the only
approximate quantity is the l2 norm value itself (its square is exact).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import mul

from . import linalg
from .scalar import Q, ZERO, ONE, format_scalar, read, sqrt_approx
from .simplex import LinearProgram, OPTIMAL

# Where spaces switch from enumeration to LPs: up to this dimension a
# polytope space's irredundant rows or generators and its V-polytope norm
# come from one cached vertex enumeration, above it from LPs.  Median CPU
# ms on random V-polytopes with d+2 to d+6 generators, per build or norm:
#   d            2     3     4     5     6     7     8
#   LP build   2.4   5.7    13    24    43    71   112
#   LP norm    0.3   0.8   1.9   3.0   4.9   7.7    11
#   enumerate  0.4   0.7   1.8   5.3    19   114   589
# Enumerating wins up to d = 6, and after 7 (d = 7) or 85 (d = 8) norms;
# the switch stays until a workload at d = 5-8 measures it end to end.
_FACET_DIM = 4
# Largest dimension whose rows-form ball is ever enumerated: the extreme
# points a ball lists, and the facets of a one-off hull_gauge ball.
_VERTEX_CAP = 8


class NormSpecError(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class LpNorm:
    p: str                      # "1", "2" or "inf"
    weights: tuple              # strictly positive rationals
    kind = "lp"


@dataclass(frozen=True)
class HPolytope:
    functionals: tuple          # tuple of covector tuples
    kind = "hpoly"


@dataclass(frozen=True)
class VPolytope:
    vertices: tuple
    kind = "vpoly"


@dataclass(frozen=True)
class NormedSpace:
    dim: int
    spec: object
    label: str = ""

    def __post_init__(self):
        validate_norm_spec(self.spec, self.dim)

    @functools.cached_property
    def dual(self):
        """The polar, built and checked once per space; its own dual is a
        new space equal to this one (unless its label ends in '**')."""
        spec = self.spec
        label = dual_label(self.label) if self.label else ""
        if isinstance(spec, LpNorm):
            inv = tuple(ONE / Q(w) for w in spec.weights)
            return NormedSpace(self.dim, LpNorm(_DUAL_P[spec.p], inv), label)
        if isinstance(spec, HPolytope):
            return NormedSpace(self.dim, VPolytope(spec.functionals), label)
        return NormedSpace(self.dim, HPolytope(spec.vertices), label)

    @functools.cached_property
    def scaled_norm(self):
        """(f, s): the norm read off integers, decided once per space.  For
        x a vector of integers over a positive denominator c, ||x / c|| =
        f(x) / (s c), and for l2 the square, ||x / c||^2 = f(x) / (s c^2).
        f(x) is an integer, except that a V-polytope gauge above _FACET_DIM
        is an exact rational (one LP).  The rows, weights and facet normals
        (from the cached enumeration) are scaled here once."""
        spec = self.spec
        if isinstance(spec, HPolytope):
            rows, s = linalg.scaled_rows(spec.functionals)
            return (lambda x: max(abs(sum(map(mul, r, x))) for r in rows)), s
        if isinstance(spec, VPolytope):
            return _gauge(spec, self.dim, _FACET_DIM, lambda: _cached_ball(
                tuple(map(tuple, spec.vertices)), self.dim)[:2])
        w, s = linalg.scaled(spec.weights)
        if spec.p == "2":
            return (lambda x: sum(t * t for t in map(mul, w, x))), s * s
        if spec.p == "1":
            return (lambda x: sum(map(abs, map(mul, w, x)))), s
        return (lambda x: max(map(abs, map(mul, w, x)), default=0)), s


def _canonical_sign(v):
    for x in v:
        if x != 0:
            return v if x > 0 else tuple(-y for y in v)
    return v


def _sort_key(v):
    return tuple((x.numerator, x.denominator) for x in map(Q, v))


def validate_norm_spec(spec, dim):
    """Check the NormSpec invariants; NormSpecError lists every fault."""
    issues = []
    if isinstance(spec, LpNorm):
        if spec.p not in ("1", "2", "inf"):
            issues.append(f"p={spec.p!r} not in {{1,2,inf}}")
        if len(spec.weights) != dim:
            issues.append("weight count != dim")
        if any(w <= 0 for w in linalg.vec(spec.weights)):
            issues.append("weights must be strictly positive")
    elif isinstance(spec, HPolytope):
        if any(len(f) != dim for f in spec.functionals):
            issues.append("functional length != dim")
        elif linalg.rank(spec.functionals) < dim:
            issues.append("functionals do not span the dual space "
                          "(seminorm, rejected)")
    elif isinstance(spec, VPolytope):
        if any(len(v) != dim for v in spec.vertices):
            issues.append("vertex length != dim")
        elif linalg.rank(spec.vertices) < dim:
            issues.append("vertices do not span the space (gauge would be "
                          "infinite off a subspace, rejected)")
    else:
        issues.append(f"unknown spec {type(spec).__name__}")
    if issues:
        raise NormSpecError("; ".join(issues))


# ---------------------------------------------------------------------------
# Polytopal balls and the norm-minimization LP

def ball_form(spec):
    """The unit ball of a polytopal norm in one of two forms: ("rows", R)
    with ||x|| = max |r.x| (hpoly; linf, rows w_j e_j), or ("gens", G) with
    ball conv(+-G) (vpoly; l1, generators e_j / w_j).  None for l2."""
    if isinstance(spec, HPolytope):
        return "rows", spec.functionals
    if isinstance(spec, VPolytope):
        return "gens", spec.vertices
    if spec.p == "2":
        return None
    n = len(spec.weights)
    if spec.p == "inf":
        return "rows", tuple(tuple(w if j == i else ZERO for j in range(n))
                             for i, w in enumerate(spec.weights))
    return "gens", tuple(tuple(ONE / w if j == i else ZERO for j in range(n))
                         for i, w in enumerate(spec.weights))


def min_norm_lp(spec, E, e):
    """(value, x) minimizing the polytopal norm ||x|| subject to E x = e, as
    one exact LP; None when the equations are infeasible.

    Rows form: free x, the caller's equations, then t with +-r.x <= t for
    every row r; minimize t.  Generators form: substitute
    x = G^T (l+ - l-) with l+, l- >= 0 and minimize sum(l+ + l-)."""
    kind, B = ball_form(spec)
    lp = LinearProgram()
    if kind == "rows":
        xs = [lp.var(free=True) for _ in B[0]]

        def coeffs(a):
            return dict(zip(xs, a))
    else:
        lpos = [lp.var() for _ in B]
        lneg = [lp.var() for _ in B]

        def coeffs(a):
            out = {}
            for hp, hn, g in zip(lpos, lneg, B):
                ag = sum((ak * gk for ak, gk in zip(a, g) if ak != 0), ZERO)
                out[hp], out[hn] = ag, -ag
            return out
    for a, rhs in zip(E, e):
        lp.add_eq(coeffs(a), rhs)
    if kind == "rows":
        t = lp.var()
        for r in B:
            for sgn in (ONE, -ONE):
                lp.add_le({**{h: sgn * v for h, v in zip(xs, r)}, t: -ONE},
                          ZERO)
        lp.minimize({t: ONE})
    else:
        lp.minimize({h: ONE for h in lpos + lneg})
    status, vals, value = lp.solve()
    if status != OPTIMAL:
        return None
    if kind == "rows":
        return value, tuple(vals[h] for h in xs)
    x = (ZERO,) * len(B[0])
    for hp, hn, g in zip(lpos, lneg, B):
        lam = vals[hp] - vals[hn]
        if lam:
            x = tuple(xk + lam * gk for xk, gk in zip(x, g))
    return value, x


def _irredundant(vectors, dim):
    """Canonical irredundant subset: the rows r with r.x = 1 a facet of
    {x : |r.x| <= 1 for every row r}, i.e. the vertices of conv(+-G) for
    generators G, read off its cached enumeration up to _FACET_DIM.
    Above it, one LP each drops v_i in conv(+- others) while the others
    span (by LP duality, the same test for rows)."""
    kept = sorted({_canonical_sign(linalg.vec(v)) for v in vectors},
                  key=_sort_key)
    if dim <= _FACET_DIM:
        facets = _cached_ball(tuple(kept), dim)[2]
        return tuple(v for v, facet in zip(kept, facets) if facet)
    eye = linalg.identity(dim)
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1:]
        if linalg.rank(others) == dim and \
                min_norm_lp(VPolytope(others), eye, kept[i])[0] <= 1:
            kept.pop(i)
        else:
            i += 1
    return tuple(kept)


def _polytope_space(kind, vectors, label):
    vecs = tuple(linalg.vec(v) for v in vectors)
    dim = len(vecs[0]) if vecs else 0
    validate_norm_spec(kind(vecs), dim)
    return NormedSpace(dim, kind(_irredundant(vecs, dim)), label)


# ---------------------------------------------------------------------------
# Construction (validating + canonicalizing)

def lp_space(p, dim=None, weights=None, label="") -> NormedSpace:
    p = str(p)
    if weights is None:
        weights = (ONE,) * dim
    weights = linalg.vec(weights)
    dim = len(weights)
    return NormedSpace(dim, LpNorm(p, weights), label)


def hpoly_space(functionals, label="") -> NormedSpace:
    return _polytope_space(HPolytope, functionals, label)


def vpoly_space(vertices, label="") -> NormedSpace:
    return _polytope_space(VPolytope, vertices, label)


# ---------------------------------------------------------------------------
# Norm evaluation

def norm_eval(space: NormedSpace, x):
    """Exact norm of x (the l2 value is a high-precision rational shadow
    of an irrational; use norm_eval_sq for exact l2 comparisons)."""
    if len(x) != space.dim:
        raise DimensionMismatch(
            f"vector length {len(x)} != dim {space.dim} of {space.label!r}")
    if is_l2(space):
        return sqrt_approx(norm_eval_sq(space, x))
    return _scaled_eval(*space.scaled_norm, x)


def _scaled_eval(f, s, x, power=1):
    """The norm (f, s) of a scaled_norm at the rational vector x (its square
    for power 2, as l2 gives it)."""
    xs, c = linalg.scaled(linalg.vec(x))
    return Q(f(xs), s * c ** power)


def is_l2(space: NormedSpace) -> bool:
    """A (weighted) euclidean space: the one kind with no polytopal ball."""
    return isinstance(space.spec, LpNorm) and space.spec.p == "2"


def norm_eval_sq(space: NormedSpace, x):
    """Exact square of the norm (rational for every spec, incl. l2)."""
    if is_l2(space) and len(x) == space.dim:
        return _scaled_eval(*space.scaled_norm, x, 2)
    n = norm_eval(space, x)     # raises DimensionMismatch on a bad length
    return n * n


# ---------------------------------------------------------------------------
# Duality

_DUAL_P = {"1": "inf", "inf": "1", "2": "2"}


def dual_label(label):
    """label + '*', trailing '**' pairs collapsed: a bidual is the space."""
    label += "*"
    while label.endswith("**"):
        label = label[:-2]
    return label


def dual_space(space: NormedSpace) -> NormedSpace:
    """The polar of space, cached as space.dual."""
    return space.dual


# ---------------------------------------------------------------------------
# Unit-ball extreme points

def _integer_vertices(halfspaces, dim):
    """Vertices of {x : a.x <= 1} by successive halfspace intersection, each
    as [(p, w), mask]: the point p / w as one primitive integer vector
    (p, w), w > 0, and the full bitmask of the halfspaces active at it.  A
    halfspace a.x <= 1 is the covector (s a, -s), s the lcm of a's
    denominators; an edge from P_i inside to P_j outside meets it at
    alpha_j P_i - alpha_i P_j, alpha the covector's values.  P_i P_j is an
    edge iff it lies on dim - 1 or more halfspaces and no third vertex is
    active on all of their common set (Fukuda and Prodon's test)."""
    # Seed: the first d independent symmetric pairs give a parallelepiped,
    # whose vertices are the sums of +- the columns of the pairs' inverse.
    idx = [2 * i for i in linalg.column_space_basis(
        linalg.transpose(halfspaces[::2]))]
    if len(idx) < dim:
        raise NormSpecError("halfspaces do not bound a polytope")
    cols, den = linalg.scaled_rows(linalg.transpose(
        linalg.inverse([halfspaces[i] for i in idx])))
    signed = [(c, tuple(-v for v in c)) for c in cols]
    verts = []
    for side in itertools.product((0, 1), repeat=dim):
        pt = tuple(map(sum, zip(*(signed[j][s] for j, s in enumerate(side)))))
        verts.append([_primitive(pt + (den,)),
                      sum(1 << idx[j] + s for j, s in enumerate(side))])
    covs = [nums + (-s,) for nums, s in map(linalg.scaled, halfspaces)]
    for h, cov in enumerate(covs):
        if h - h % 2 in idx:            # a seed pair
            continue
        vals = [sum(map(mul, cov, pv[0])) for pv in verts]
        inside = [i for i, t in enumerate(vals) if t < 0]
        on = [i for i, t in enumerate(vals) if t == 0]
        outside = [i for i, t in enumerate(vals) if t > 0]
        for i in on:
            verts[i][1] |= 1 << h
        if not outside:
            continue
        masks = [m for _, m in verts]
        new_verts = []
        for i in inside:
            for j in outside:
                common = masks[i] & masks[j]
                if common.bit_count() < dim - 1 or any(
                        not common & ~m for k, m in enumerate(masks)
                        if k != i and k != j):
                    continue
                pt = _primitive(tuple(vals[j] * pi - vals[i] * pj for pi, pj
                                      in zip(verts[i][0], verts[j][0])))
                new_verts.append((pt, common | 1 << h))
        index = {verts[i][0]: verts[i] for i in inside + on}
        for pt, active in new_verts:
            index.setdefault(pt, [pt, 0])[1] |= active
        verts = list(index.values())
    return verts


def _primitive(v):
    """The integer vector v over the gcd of its entries."""
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g > 1 else v


def _symmetric_ball(rows, dim):
    """(vertices, den, facets) of {x : |r.x| <= 1 for every row r}: the
    vertices p / w as integer rows p (den // w) over den, the lcm of the
    w's, and a facet flag per row.  r.x = 1 is a facet iff the set of
    vertices on it (a bitmask) is inside no other signed row's set.  A
    lower or empty face lies in a facet, every facet is a row, and a
    facet's set is inside another face's only for equal rows."""
    halfspaces = [r for f in rows for r in (f, tuple(-v for v in f))]
    verts = _integer_vertices(halfspaces, dim)
    on = [sum(1 << k for k, (_, m) in enumerate(verts) if m >> h & 1)
          for h in range(len(halfspaces))]
    facets = tuple(not any(not on[2 * i] & ~on[h] and halfspaces[h] != r
                           for h in range(len(halfspaces)))
                   for i, r in enumerate(rows))
    den = math.lcm(*(pt[-1] for pt, _ in verts))
    return (tuple(tuple(v * (den // pt[-1]) for v in pt[:-1])
                  for pt, _ in verts), den, facets)


# Keyed by the rows as a tuple of row tuples.
_cached_ball = functools.lru_cache(maxsize=32)(_symmetric_ball)


def _gauge(spec, dim, facet_dim, facets_of):
    """The scaled_norm (f, s) of the gauge of the V-polytope ball
    conv(+-spec.vertices): the largest r.x over its facet normals r (the
    vertices of its polar, integer rows over s from the (vertices, den) of
    facets_of()) up to dimension facet_dim, one exact LP per x above it."""
    if dim <= facet_dim:
        rows, s = facets_of()
        return (lambda x: max(sum(map(mul, r, x)) for r in rows)), s
    eye = linalg.identity(dim)

    def gauge_lp(x):
        res = min_norm_lp(spec, eye, x)
        if res is None:
            raise NormSpecError("gauge LP infeasible: corrupted VPolytope "
                                "(vertices do not span)")
        return res[0]
    return gauge_lp, 1


def hull_gauge(generators, dim):
    """x -> gauge of conv(+-generators) at x, for a one-off ball evaluated
    at many points: off its facet normals up to the vertex-enumeration cap
    (they pay for themselves over a batch), one LP per point above it.  The
    facets are not cached, so a one-off ball evicts no reused one.  The
    generators must span."""
    spec = VPolytope(tuple(generators))
    f, s = _gauge(spec, dim, _VERTEX_CAP,
                  lambda: _symmetric_ball(spec.vertices, dim)[:2])
    return lambda x: _scaled_eval(f, s, x)


def extreme_point_estimate(space: NormedSpace):
    """Extreme-point count of the unit ball read off its form, with no
    enumeration: 2|G| for generators, 2^dim for rows (the count of a
    parallelepiped); None for l2."""
    form = ball_form(space.spec)
    if form is None:
        return None
    kind, B = form
    return 2 * len(B) if kind == "gens" else 2 ** space.dim


def ball_extreme_record(space: NormedSpace):
    """(integer rows, den): the extreme points of a polytopal unit ball, +-
    each generator, or the vertices of a rows-form ball from _cached_ball."""
    form = ball_form(space.spec)
    if form is None:
        raise NormSpecError("l2 ball is not a polytope; extreme points "
                            "not enumerable")
    if form[0] == "gens":
        return linalg.scaled_rows(
            [v for u in form[1] for v in (u, tuple(-x for x in u))])
    if space.dim > _VERTEX_CAP:
        raise NormSpecError(
            f"dim {space.dim} exceeds vertex-enumeration cap {_VERTEX_CAP}")
    return _cached_ball(tuple(map(tuple, form[1])), space.dim)[:2]


def ball_extreme_points(space: NormedSpace):
    """The extreme points of ball_extreme_record, as rationals in order."""
    verts, den = ball_extreme_record(space)
    return [linalg.unscale(v, den) for v in verts]


# ---------------------------------------------------------------------------
# JSON wire format

def spec_to_json(spec):
    if isinstance(spec, LpNorm):
        return {"kind": "lp", "p": spec.p,
                "weights": [format_scalar(w) for w in spec.weights]}
    if isinstance(spec, HPolytope):
        return {"kind": "hpoly",
                "functionals": [[format_scalar(v) for v in f]
                                for f in spec.functionals]}
    if isinstance(spec, VPolytope):
        return {"kind": "vpoly",
                "vertices": [[format_scalar(v) for v in w]
                             for w in spec.vertices]}
    raise NormSpecError(f"unknown spec {type(spec).__name__}")


def space_to_json(space: NormedSpace):
    return {"dim": space.dim, "label": space.label,
            "spec": spec_to_json(space.spec)}


# Each norm kind's spec class and field rules; validate_norm_spec checks p.
_SPEC_RULES = {
    "lp": (LpNorm, {"p": lambda p, path: str(p), "weights": [Q]}),
    "hpoly": (HPolytope, {"functionals": [[Q]]}),
    "vpoly": (VPolytope, {"vertices": [[Q]]}),
}


def spec_from_json(obj, path="spec"):
    """The spec read by the rule that the object's kind picks."""
    kind = obj.get("kind") if type(obj) is dict else None
    if type(kind) is not str or kind not in _SPEC_RULES:
        raise NormSpecError(f"{path}.kind: unknown norm kind {kind!r}")
    cls, rule = _SPEC_RULES[kind]
    fields = read(obj, {"kind": str, **rule}, path)
    del fields["kind"]
    return cls(**fields)


_SPACE_RULE = {"dim": 0, "spec": spec_from_json, "label": (str, "")}


def space_from_json(obj, path="space") -> NormedSpace:
    fields = read(obj, _SPACE_RULE, path)
    try:
        return NormedSpace(**fields)
    except NormSpecError as e:
        raise NormSpecError(f"{path}.spec: {e}") from None

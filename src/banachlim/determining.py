"""Determining-pair analysis over inverse-limit truncations.

Core question: given a finite-dimensional slice of an inverse limit,
presented by a SubspaceGenerator, can two elements look identical through
the first N stages (while carrying most of their norm in those stages)
and still be far apart at a deeper evaluation stage M?  A pair witnessing
this is a *counterexample*; its absence, established over a certified
grid, is a *certificate* that the truncated slice is eps-determining.

All verdicts use the stage-M norm as the operative norm.  The stage-M
norm is a rigorous lower bound of the limit norm, so every certificate
explicitly covers the truncated pair only; counterexamples re-verify in
exact rational arithmetic.

The module also provides sequence diagnostics (uniformity of the stage
norm convergence versus convergence of norms to the stagewise limit), a
three-term decomposition witnessing their agreement, and the
quotient-restriction check for generated subspaces together with the
rescaled-image construction that forces restrictions to be quotient maps.
"""

import functools
import itertools
import math
import random as _random
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from . import linalg
from .linmap import is_quotient_map, linear_map, operator_norm
from .scalar import (ONE, Q, ZERO, rationalize, require_int, sqrt_bracket,
                     to_float)
from .space import (NormedSpace, ball_extreme_points, ball_form, dual_space,
                    hpoly_space, is_l2, lp_space, norm_eval, vpoly_space)
from .systems import (InverseSystem, SubspaceGenerator, generator_from_tail,
                      invlim_convergence, linf_drop_system, project)


# ---------------------------------------------------------------------------
# Query types

@dataclass(frozen=True)
class RhoSchedule:
    """Positive nonincreasing stage slacks 1 >= rho_1 >= ... >= rho_N > 0."""

    values: tuple

    def __post_init__(self):
        vals = tuple(Q(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("empty schedule")
        if any(v <= 0 or v > 1 for v in vals):
            raise ValueError("schedule values must lie in (0, 1]")
        if any(vals[k] < vals[k + 1] for k in range(len(vals) - 1)):
            raise ValueError("schedule must be nonincreasing")

    @property
    def length(self):
        return len(self.values)


@dataclass(frozen=True)
class SearchConfig:
    starts: int = 16
    iters: int = 300
    seed: int = 0
    max_den: int = 10**6

    def __post_init__(self):
        require_int(self.starts, "search starts", 0)
        require_int(self.iters, "search iters", 0)
        require_int(self.max_den, "search max_den", 1)


@dataclass(frozen=True)
class CertifyConfig:
    delta: Q = Q(1, 20)
    refine_rounds: int = 3
    # Abstract work units (grid cells; exact pair verifications weigh
    # _VERIFY_COST each).  Near-boundary instances can otherwise cascade
    # into unbounded refinement; exhausting the budget yields "undecided".
    budget: int = 3 * 10**6

    def __post_init__(self):
        if isinstance(self.delta, bool) or not Q(self.delta) > 0:
            raise ValueError("certify delta must be > 0")
        object.__setattr__(self, "delta", Q(self.delta))
        require_int(self.refine_rounds, "certify refine_rounds", 0)
        require_int(self.budget, "certify budget", 0)


_VERIFY_COST = 1000
# Largest parameter dimension the certify sweep takes on.  It is at most
# _FACET_DIM, so the operator norms of its cube constants solve no LP.
_CERTIFY_DIM = 4


@dataclass(frozen=True)
class DeterminingQuery:
    system: InverseSystem
    gen: SubspaceGenerator
    rho: RhoSchedule
    eps: object
    eval_stage: int
    search: SearchConfig = field(default_factory=SearchConfig)
    certify: CertifyConfig = field(default_factory=CertifyConfig)

    def __post_init__(self):
        object.__setattr__(self, "eps", Q(self.eps))
        if self.gen.system is not self.system:
            raise ValueError("generator belongs to a different system")
        if not self.rho.length <= self.eval_stage <= self.gen.top_stage:
            raise ValueError("need N <= eval_stage <= generator top stage")
        if not 0 < self.eps <= 2:
            raise ValueError("eps must lie in (0, 2]")


# ---------------------------------------------------------------------------
# Exact pair verification

def _bracket(space, v, c):
    """Certified bracket of ||v / c|| for a vector v of integers over c > 0,
    as two (numerator, denominator) pairs: exact for polytopal norms, a
    tight sqrt bracket for euclidean ones."""
    f, s = space.scaled_norm
    if is_l2(space):
        return [(b.numerator, b.denominator)
                for b in sqrt_bracket(Q(f(v), s * c * c))]
    return [(f(v), s * c)] * 2


def _max(p, r):
    """The larger of two (numerator, positive denominator) pairs."""
    return p if p[0] * r[1] >= r[0] * p[1] else r


@dataclass(frozen=True)
class Counterexample:
    """A violating pair.  All slack fields are certified lower bounds:
    positive tail_slacks certify the strict stage constraints
    ||v||_M - ||pi_i(v)|| < rho_i ||v||_M; a positive proximity_slack
    certifies ||pi_N(v - v')|| < max(||v||_M, ||v'||_M) / N; violation is
    a lower bound of ||v - v'||_M / max(||v||_M, ||v'||_M) >= eps."""

    a: tuple
    a_prime: tuple
    v: tuple
    v_prime: tuple
    tail_slacks: tuple
    proximity_slack: object
    violation: object


def verify_pair(q: DeterminingQuery, a, a_prime, dens=None):
    """Exact re-check of a candidate pair against the strict constraints
    and the separation threshold (stage-M operative norm).  The check is
    scale invariant, so no normalization of (a, a') is required.  Ties
    count as failures; returns a Counterexample or None.  With dens =
    (c, c'), a and a_prime are integer vectors over positive c and c'.

    The stage images are integer vectors over one denominator c (the
    generator's scaled matrices times the scaled pair), and norms and
    slacks (numerator, denominator) pairs; rationals are built only for
    the Counterexample."""
    M, N = q.eval_stage, q.rho.length
    (x, cx), (y, cy) = (zip((a, a_prime), dens) if dens else (
        linalg.scaled(q.gen.param_vector(v)) for v in (a, a_prime)))
    den, mats = q.gen.scaled
    c, zs = den * cx * cy, ([t * cy for t in x], [t * cx for t in y])

    def images(i):
        return [[sum(map(mul, r, z)) for r in mats[i - 1]] for z in zs]

    top = q.system.stage(M)
    vs = images(M)
    brs = [_bracket(top, v, c) for v in vs]
    if brs[0][1][0] == 0 or brs[1][1][0] == 0:
        return None
    tail_slacks = []
    for i, rho in enumerate(q.rho.values, 1):
        rn, rd = rho.numerator, rho.denominator
        row, ims = [], images(i)    # after the loop, the stage-N images
        for v, (_, (hn, hd)) in zip(ims, brs):
            (ln, ld), _ = _bracket(q.system.stage(i), v, c)
            slack = (ln * rd * hd - (rd - rn) * hn * ld, ld * rd * hd)
            if slack[0] <= 0:
                return None
            row.append(slack)
        tail_slacks.append(row)
    (mln, mld), (mhn, mhd) = (_max(brs[0][k], brs[1][k]) for k in (0, 1))
    # The difference images, by linearity of each stage map.
    _, (dn, dd) = _bracket(q.system.stage(N),
                           [p - r for p, r in zip(*ims)], c)
    prox = (mln * dd - N * dn * mld, N * mld * dd)
    if prox[0] <= 0:
        return None
    (ln, ld), _ = _bracket(top, [p - r for p, r in zip(*vs)], c)
    en, ed = q.eps.numerator, q.eps.denominator
    if ln * ed * mhd < en * mhn * ld:
        return None
    return Counterexample(linalg.unscale(x, cx), linalg.unscale(y, cy),
                          linalg.unscale(vs[0], c), linalg.unscale(vs[1], c),
                          tuple(tuple(Q(*p) for p in row)
                                for row in tail_slacks),
                          Q(*prox), Q(ln * mhd, ld * mhn))


# ---------------------------------------------------------------------------
# Fast float evaluation

class _FloatNorms:
    """Float norms of stacked vectors: the last axis of Y holds one vector
    per space, in order, and the call returns their norms along it, each
    the value it gets alone: a max is exact, and sums and the polytope
    products (row-wise: a matrix product may round differently) run on
    the space's own slice."""

    def __init__(self, spaces):
        dims = [S.dim for S in spaces]
        self.starts = np.cumsum([0] + dims[:-1])
        self.w, self.rest = np.ones(sum(dims)), []
        for k, (S, lo) in enumerate(zip(spaces, self.starts)):
            spec, cols = S.spec, slice(lo, lo + S.dim)
            if spec.kind == "lp":
                self.w[cols] = [to_float(x) for x in spec.weights]
                if spec.p != "inf":
                    self.rest.append((k, cols, spec.p, None))
                continue
            rows = (spec.functionals if spec.kind == "hpoly"
                    else ball_extreme_points(dual_space(S)))
            self.rest.append((k, cols, None, np.array(
                [[to_float(c) for c in row] for row in rows]).T))

    def __call__(self, Y):
        W = np.abs(Y * self.w)
        S = np.maximum.reduceat(W, self.starts, axis=-1)
        for k, cols, p, A in self.rest:
            S[..., k] = (W[..., cols].sum(axis=-1) if p == "1" else
                         np.sqrt((W[..., cols] ** 2).sum(axis=-1)) if p else
                         np.abs(np.matmul(Y[..., None, cols], A)).max(
                             axis=(-2, -1)))
        return S


class _FloatQuery:
    """Float shadow of a query: the matrices of stages 1..N and M, stacked
    in that order (M once; stage i at the columns cols[i]), norms of the
    stacked images, and the margins of pairs."""

    def __init__(self, q: DeterminingQuery):
        self.N, self.M, self.d = q.rho.length, q.eval_stage, q.gen.param_dim
        self.rho = [to_float(r) for r in q.rho.values]
        self.slack, self.eps = 1 - np.array(self.rho), to_float(q.eps)
        self.stages = list(range(1, self.N + 1)) + [self.M]
        self.G = {i: np.array([[to_float(c) for c in row]
                               for row in q.gen.matrix(i)])
                  for i in self.stages}
        self.norms = _FloatNorms([q.system.stage(i) for i in self.G])
        self.cols = {i: slice(lo, lo + len(G)) for lo, (i, G) in zip(
            self.norms.starts, self.G.items())}
        self.stacked = np.concatenate(list(self.G.values()))
        self.dots = [(c, self.G[i]) for i, c in self.cols.items()
                     if c.stop - c.start == 1]

    def margins(self, A, B):
        """Margins of the pairs (A[r], B[r]), one per row: the min of all
        constraint slacks and the separation term after scaling
        max(nu(a), nu(b)) to 1; > 0 flags a violating pair.  Each row gets
        the value it gets alone (rounding commutes with the min)."""
        n = len(A)
        X = np.concatenate([A, B])[:, :, None]
        # Row-wise matrix-vector products; a one-row stage keeps its own
        # (numpy's dot path there rounds unlike a row of a longer product).
        V = np.matmul(self.stacked, X)[:, :, 0]
        for c, g in self.dots:
            V[:, c] = np.matmul(g, X)[:, :, 0]
        # Stage norms of the images, then of the pairs' differences.
        S = self.norms(np.concatenate([V, V[:n] - V[n:]]))
        nu = S[:2 * n, -1]
        s = np.maximum(nu[:n], nu[n:])
        low = (S[:2 * n, :self.N] - self.slack * nu[:, None]).min(axis=1)
        prox = s / self.N - S[2 * n:, self.N - 1]
        sep = S[2 * n:, -1] - self.eps * s
        top = np.minimum(np.minimum(low[:n], low[n:]), np.minimum(prox, sep))
        return np.divide(top, s, out=np.full(n, -1.0), where=s >= 1e-12)


# ---------------------------------------------------------------------------
# Incomplete search (sound counterexamples, no certified absence)

@dataclass(frozen=True)
class SearchReport:
    kind: str                   # "counterexample" | "not-found"
    counterexample: object
    best_margin: float
    best_pair: tuple
    starts: int
    evaluations: int


def eps_determining_search(q: DeterminingQuery) -> SearchReport:
    """Multistart pattern search for a violating pair, maximizing the
    normalized margin.  The starts (2d(d-1) axis pairs, then
    ``search.starts`` Gaussian ones) run in lockstep: at each tick every
    running start polls the next coordinate and sign of its sweep, and
    one ``margins`` call scores all those candidates.  Each start keeps
    its own point, margin and step, so it follows its path alone.  Up to
    ten candidates are rationalized and each distinct pair is exactly
    re-verified; a not-found report carries the best near-miss and
    certifies nothing."""
    fq = _FloatQuery(q)
    d = fq.d
    rng = _random.Random(q.search.seed)
    E = np.eye(2 * d)
    X = np.array([E[i] + sgn * E[d + j] for i in range(d) for j in range(d)
                  if i != j for sgn in (1.0, -1.0)]
                 + [[rng.gauss(0, 1) for _ in range(2 * d)]
                    for _ in range(q.search.starts)]).reshape(-1, 2 * d)
    if not len(X):
        raise ValueError("the search has no start: a one-parameter "
                         "generator needs search.starts >= 1")
    m = np.abs(X).max(axis=1)
    X /= np.where(m > 0, m, 1.0)[:, None]
    F = fq.margins(X[:, :d], X[:, d:])
    evals = len(X)
    step = np.full(len(X), 0.5)
    for _ in range(q.search.iters):
        live = np.flatnonzero(step > 1e-5)
        if not live.size:
            break
        moved = np.zeros(live.size, dtype=bool)
        for k in range(2 * d):
            for sgn in (1.0, -1.0):
                Y = X[live]
                Y[:, k] += sgn * step[live]
                m = np.abs(Y).max(axis=1)
                Y /= np.where(m > 0, m, 1.0)[:, None]
                fy = fq.margins(Y[:, :d], Y[:, d:])
                evals += live.size
                up = fy > F[live]
                X[live[up]], F[live[up]] = Y[up], fy[up]
                moved |= up
        step[live[~moved]] *= 0.5

    def rational_pair(x, den):
        return tuple(tuple(rationalize(float(v), den) for v in half)
                     for half in (x[:d], x[d:]))

    # Each distinct pair is verified once, with the margin of its first
    # candidate: a repeat cannot beat itself.
    firsts = {}
    for i in sorted(np.flatnonzero(F > 1e-9), key=lambda i: -F[i])[:10]:
        for den in (10**3, q.search.max_den):
            firsts.setdefault(rational_pair(X[i], den), float(F[i]))
    best_ce, best_ce_pair, best_ce_f = None, None, None
    for pair, f in firsts.items():
        ce = verify_pair(q, *pair)
        if ce is not None and (best_ce is None
                               or ce.violation > best_ce.violation):
            best_ce, best_ce_pair, best_ce_f = ce, pair, f
    if best_ce is not None:
        return SearchReport("counterexample", best_ce, best_ce_f,
                            best_ce_pair, len(X), evals)
    best = int(np.argmax(F))
    return SearchReport("not-found", None, float(F[best]),
                        rational_pair(X[best], q.search.max_den), len(X), evals)


# ---------------------------------------------------------------------------
# Certified grid check

def parameter_space(gen: SubspaceGenerator, stage: int) -> NormedSpace:
    """Pull the stage norm back to parameter space through g_stage
    (requires an injective presentation at that stage)."""
    G = gen.matrix(stage)
    if linalg.rank(G) != gen.param_dim:
        raise ValueError("generator not injective at the requested stage")
    return _pullback(gen.system.stage(stage), G)


def _pullback(space: NormedSpace, G) -> NormedSpace:
    """The norm a -> ||G a|| of space, for G of full column rank."""
    spec = space.spec
    form = ball_form(spec)
    if form is not None and form[0] == "rows":     # hpoly, linf
        return hpoly_space(linalg.mat_mul(form[1], G))
    if spec.kind == "lp" and spec.p == "1":
        nz = [linalg.vec_scale(w, row)
              for w, row in zip(spec.weights, G) if any(c != 0 for c in row)]
        if 2 ** (len(nz) - 1) > 4096:
            raise ValueError("too many sign patterns to pull back this norm")
        rows = [list(nz[0])]
        for r in nz[1:]:
            rows = ([linalg.vec_add(row, r) for row in rows]
                    + [linalg.vec_sub(row, r) for row in rows])
        return hpoly_space(rows)
    if spec.kind == "vpoly" and len(G) == len(G[0]):
        Ginv = linalg.inverse(G)
        return vpoly_space([linalg.mat_vec(Ginv, v) for v in spec.vertices])
    raise ValueError(
        f"cannot pull a {spec.kind} norm back to parameter space")


@dataclass(frozen=True)
class CertifyReport:
    kind: str                   # "certificate" | "counterexample" | "undecided"
    statement: str
    eval_stage: int
    eps: object
    delta: object
    counterexample: object = None
    straddle: tuple = None
    points_checked: int = 0
    refinements: int = 0


def _face_points(face, sgn, coord_vals):
    """The product grid on the cube face x_face = sgn as (face, point)
    nodes: the other coordinates, in order, run over the lists of
    coord_vals (the last one fastest)."""
    return [(face, p[:face] + (sgn,) + p[face:])
            for p in itertools.product(*coord_vals)]


def _local_vals(center, half, quarter, lo, hi):
    """The five points center - half + k * quarter clamped to [lo, hi],
    distinct and sorted (integers on the sweep's lattice)."""
    return sorted({min(max(center - half + k * quarter, lo), hi)
                   for k in range(5)})


def eps_determining_certify(q: DeterminingQuery) -> CertifyReport:
    """Certified grid check of the eps-determining property for the
    stage-M truncated pair.

    Parametrization: the constraints are jointly scale invariant and
    symmetric in the pair, so every violating pair can be written as
    (a, t*u) with a, u on the unit sphere of the pulled-back parameter
    norm and t in [0, 1].  The per-vector tail constraints are themselves
    scale invariant, so they enter as t-independent direction slacks; the
    proximity and separation terms are Lipschitz in (a, u, t).  Spheres
    are covered by radially projected cube-face grids; the exact constants
    L_i = max(1, ||G_i : nu -> W_i||) turn the grid step into a margin
    tau: all grid margins <= -tau certify absence of a violating pair.
    Grid points straddling (-tau, 0] are refined locally; refinement
    either clears them, produces an exactly verified Counterexample, or
    reports undecided.

    The coarse grid and every refinement share one node evaluator:
    ``sphere`` projects cube points to the sphere, each exactly once per
    call, and filters them by float tail slack; ``pair_terms`` evaluates
    the float pair terms of an (a, u, t) grid as G a - t (G u).

    Every node lies on a fixed lattice, as refinement quarters the steps
    at most refine_rounds + 1 times and clamping to the cube keeps a node
    on it: cube points are integers over D and levels t integers over
    Dt."""
    d = q.gen.param_dim
    if d > _CERTIFY_DIM:
        raise ValueError(f"parameter dimension {d} above certification cap")
    nu = parameter_space(q.gen, q.eval_stage)

    # c_min |x|_inf <= nu(x) <= c_max |x|_inf, by the identity's norms.
    cube, eye = lp_space("inf", dim=d), linalg.identity(d)
    c_max = operator_norm(linear_map(cube, nu, eye)).upper
    c_min = 1 / operator_norm(linear_map(nu, cube, eye)).upper
    l_rad = 2 * c_max / c_min          # radial projection, cube -> nu sphere
    fq = _FloatQuery(q)
    stage_norm = {i: _FloatNorms([q.system.stage(i)]) for i in (fq.N, fq.M)}
    # ||G_i a||_i <= L_i nu(a); stage M is nu itself (L = 1).
    L = [max(ONE, operator_norm(linear_map(nu, q.system.stage(i), G)).upper)
         for i, G in enumerate(q.gen.matrices[:fq.N], 1)]

    f_nu, s_nu = nu.scaled_norm

    @functools.cache
    def proj(x):
        # x / nu(x) = x s_nu / f_nu(x), as D cancels (an LP gauge is a
        # rational g): integers over g's numerator.  int / int is the
        # correctly rounded float, as to_float gives.
        g = f_nu(x)
        e = tuple(c * s_nu * g.denominator for c in x)
        return (e, g.numerator), [c / g.numerator for c in e]

    def sphere(points, tau_s):
        """Project (face, cube point) nodes to the nu sphere; keep those
        whose float tail slack exceeds -tau_s.  Returns the kept indices and
        their exact projections, stacked float images and slacks."""
        E = [proj(p) for _, p in points]
        X = np.array([f for _, f in E])
        V = np.concatenate([X @ G.T for G in fq.G.values()], axis=1)
        slack = (fq.norms(V)[:, :fq.N] - fq.slack).min(axis=1)
        keep = np.flatnonzero(slack > -tau_s)
        return keep, [E[k][0] for k in keep], V[keep], slack[keep]

    def pair_terms(Va, Vu, ts, tau_p):
        """Over the (a, u, t) grid of the images Va, Vu and the levels ts:
        whether both pair terms exceed -tau_p, and min(prox, sep)."""
        T = np.array([t / Dt for t in ts])

        def dist(i):
            c = fq.cols[i]
            return stage_norm[i](Va[:, None, None, c]
                                 - T[:, None] * Vu[None, :, None, c])[..., 0]
        prox, sep = 1 / fq.N - dist(fq.N), dist(fq.M) - fq.eps
        return (prox > -tau_p) & (sep > -tau_p), np.minimum(prox, sep)

    # Per-term exclusion margins at steps h / D, ht / Dt (one pair per
    # level): the covering radius of a sphere point is l_rad*h/2 in nu, so
    # its tail slack moves by at most max(L) times that; the pair terms
    # are L_N-Lipschitz in (a, u, t) with summed covering radii.
    @functools.cache
    def margins(h, ht):
        h, ht = Q(h, D), Q(ht, Dt)
        return (to_float(max(L) * l_rad * h / 2) + 1e-9,
                to_float(L[-1] * (l_rad * h + ht / 2)) + 1e-9)

    def try_verify(a_pt, u_pt, t):
        nonlocal work
        work += _VERIFY_COST
        (x, cx), (y, cy), t = a_pt, u_pt, t or 1    # t = 0: least level
        return verify_pair(q, x, tuple(t * c for c in y), (cx, Dt * cy))

    def refine(a, u, t, h, ht, depth):
        """Cover the cube cells around a suspect triple at step h/4 (h, ht
        in lattice units)."""
        nonlocal checked, refinements, work
        if work > q.certify.budget:
            return "budget", None
        refinements += 1
        h4, ht4 = h // 4, ht // 4
        tau_s, tau_p = margins(h4, ht4)

        def local(face, p):
            return _face_points(face, p[face], [
                _local_vals(p[k], h // 2, h4, -D, D)
                for k in range(d) if k != face])

        an, un = local(*a), local(*u)
        ka, Ea, Va, _ = sphere(an, tau_s)
        ku, Eu, Vu, _ = sphere(un, tau_s)
        ts = _local_vals(t, ht // 2, ht4, 0, Dt)
        checked += len(ka) * len(ku) * len(ts)
        work += len(ka) * len(ku) * len(ts)
        ok, g = pair_terms(Va, Vu, ts, tau_p)
        worst = None
        for ia, iu, it in zip(*np.nonzero(ok)):
            ce = try_verify(Ea[ia], Eu[iu], ts[it])
            if ce is not None:
                return "ce", ce
            if depth > 0:
                sub = refine(an[ka[ia]], un[ku[iu]], ts[it], h4, ht4,
                             depth - 1)
                if sub[0] != "ok":
                    return sub
            else:
                worst = (linalg.unscale(*Ea[ia]), linalg.unscale(*Eu[iu]),
                         Q(ts[it], Dt), float(g[ia, iu, it]))
        return ("ok", None) if worst is None else ("undecided", worst)

    def report(kind, statement, **kw):
        return CertifyReport(kind, statement, q.eval_stage, q.eps, h0,
                             points_checked=checked, refinements=refinements,
                             **kw)

    h0 = q.certify.delta
    n, n_lev = (max(1, math.ceil(k / float(h0))) for k in (2, 1))
    # The coarse steps 2/n and 1/n_lev are 2 fine / D and fine / Dt.
    fine = 4 ** (q.certify.refine_rounds + 1)
    D, Dt = n * fine, n_lev * fine
    vals = [2 * k * fine - D for k in range(n + 1)]
    t_vals = [k * fine for k in range(n_lev + 1)]
    # a ranges over half the sphere faces (joint negation symmetry), u over
    # all of them: each +1 face, then its points negated.
    a_nodes, u_nodes = [], []
    for face in range(d):
        pts = _face_points(face, D, [vals] * (d - 1))
        a_nodes += pts
        u_nodes += pts + [(face, tuple(-c for c in p)) for _, p in pts]
    tau_s0, tau_p0 = margins(2 * fine, fine)
    ka, Ea, Va, slack_a = sphere(a_nodes, tau_s0)
    ku, Eu, Vu, slack_u = sphere(u_nodes, tau_s0)
    checked = work = len(a_nodes) * len(u_nodes) * len(t_vals)
    refinements = 0

    # Suspects (g, a, u, t) in (a, u, t) order, g the float margin, one
    # a-node at a time (small arrays), then stably sorted by -g.
    suspects = []
    for ia in range(len(ka)):
        ok, g = pair_terms(Va[ia:ia + 1], Vu, t_vals, tau_p0)
        g = np.minimum(g[0], np.minimum(slack_a[ia], slack_u)[:, None])
        iu, it = np.nonzero(ok[0])
        suspects += zip(g[iu, it].tolist(), itertools.repeat(ia),
                        iu.tolist(), it.tolist())
    suspects.sort(key=lambda s: -s[0])
    exhausted = ("work budget exhausted before all suspects were resolved; "
                 "raise the budget or the delta")
    straddle = None
    for _, ia, iu, it in suspects:
        if work > q.certify.budget:
            return report("undecided", exhausted, straddle=straddle)
        ce = try_verify(Ea[ia], Eu[iu], t_vals[it])
        kind, found = ("ce", ce) if ce is not None else refine(
            a_nodes[ka[ia]], u_nodes[ku[iu]], t_vals[it], 2 * fine, fine,
            q.certify.refine_rounds)
        if kind == "ce":
            return report("counterexample",
                          "violating pair found and exactly re-verified "
                          f"(stage-{q.eval_stage} operative norm)",
                          counterexample=found)
        if kind == "budget":
            return report("undecided", exhausted, straddle=straddle)
        if kind == "undecided" and straddle is None:
            straddle = found
    if straddle is not None:
        return report("undecided", "grid margin straddles zero after "
                      "refinement; decrease delta", straddle=straddle)
    return report(
        "certificate",
        f"the stage-{q.eval_stage} truncated pair is eps-determining "
        "(certified over the normalized parameter grid; the statement "
        "covers the truncated norms only)")


# ---------------------------------------------------------------------------
# Canonical obstruction query

def prefix_obstruction_query(N, eps=Q(1, 2), rho=None, **kw) -> DeterminingQuery:
    """The canonical sup-norm obstruction: a 2-parameter slice of the
    coordinate-drop sup-norm system spanned by the N-ones and 2N-ones
    prefix vectors.  The pair (N-ones, 2N-ones) agrees through stage N,
    carries full norm at every stage, and is distance 1 apart at stage
    2N — a violating pair for any eps <= 1."""
    M = 2 * N
    system = linf_drop_system(M)
    gen = generator_from_tail(
        system, [[ONE if r < N else ZERO, ONE] for r in range(M)])
    if rho is None:
        rho = RhoSchedule((Q(1, 2),) * N)
    return DeterminingQuery(system, gen, rho, eps, M, **kw)


# ---------------------------------------------------------------------------
# Sequence diagnostics

@dataclass(frozen=True)
class SequenceDiagnostics:
    eval_stage: int
    tol: object
    uniformity: tuple = None        # u_i = max_k (||v_k||_M - ||pi_i v_k||)
    uniform_within_tol: bool = None
    blocks: tuple = None            # N_1 < N_2 < ... with u_{N_l} < 1/l
    weak_star_convergent: bool = None
    stage_limit: tuple = None
    norm_residuals: tuple = None
    norm_converges: bool = None
    strong_residuals: tuple = None
    strong_converges: bool = None


def _common_stage(seq):
    if not seq:
        raise ValueError("empty sequence")
    return min(cv.top_stage for cv in seq)


def _stage_norms(seq, i):
    """||pi_i v_k|| per term, once per run of equal consecutive vectors."""
    space, pts = seq[0].system.stage(i), [project(cv, i) for cv in seq]
    norms = [norm_eval(space, pts[0])]
    for prev, w in zip(pts, pts[1:]):
        norms.append(norms[-1] if w == prev else norm_eval(space, w))
    return norms


def dp_diagnostic(seq, tol=Q(1, 10**6)) -> SequenceDiagnostics:
    """Uniformity profile of the stagewise norm convergence, with the
    stage-M norm standing in for the limit norm: u_i is the worst gap
    ||v_k||_M - ||pi_i(v_k)|| over the sequence, nonincreasing in i.  The
    verdict is uniform-within-tol iff some stage achieves u_i < tol; the
    block report greedily selects stages N_1 < N_2 < ... with
    u_{N_l} < 1/l while they exist within the truncation."""
    M = _common_stage(seq)
    tol = Q(tol)
    norms_m = _stage_norms(seq, M)
    profile = [max(nm - n for nm, n in zip(norms_m, _stage_norms(seq, i)))
               for i in range(1, M)] + [ZERO]     # u_M = 0 exactly
    blocks = []
    stage = 1
    for level in range(1, M + 1):
        while stage <= M and profile[stage - 1] >= Q(1, level):
            stage += 1
        if stage > M:
            break
        blocks.append(stage)
        stage += 1
    return SequenceDiagnostics(
        eval_stage=M, tol=tol, uniformity=tuple(profile),
        uniform_within_tol=any(u < tol for u in profile),
        blocks=tuple(blocks))


def anp_diagnostic(seq, tol=Q(1, 10**6)) -> SequenceDiagnostics:
    """Norm convergence to the stagewise limit (the computable surrogate
    of the weak* limit for bounded compatible sequences).  Reports the
    stage-M limit candidate, the residuals |  ||v_k||_M - ||w||_M  |, and
    whether they settle below tol; strong residuals ||v_k - w||_M are
    included for contrast."""
    M = _common_stage(seq)
    tol = Q(tol)
    top = seq[0].system.stage(M)
    rep = invlim_convergence(seq, tol)
    if not rep.converges:
        return SequenceDiagnostics(eval_stage=M, tol=tol,
                                   weak_star_convergent=False,
                                   norm_converges=False)
    w = rep.stage_limits[M - 1]
    norms = _stage_norms(seq, M)
    residuals = tuple(abs(n - norms[-1]) for n in norms)
    strong = tuple(ZERO if v == w else norm_eval(top, linalg.vec_sub(v, w))
                   for v in (project(cv, M) for cv in seq))
    # Some tail of at least two residuals < tol: so the last two are.
    norm_conv, strong_conv = (len(seq) > 1 and all(r < tol for r in rs[-2:])
                              for rs in (residuals, strong))
    return SequenceDiagnostics(
        eval_stage=M, tol=tol, weak_star_convergent=True, stage_limit=w,
        norm_residuals=residuals, norm_converges=norm_conv,
        strong_residuals=strong, strong_converges=strong_conv)


@dataclass(frozen=True)
class EquivalenceReport:
    dp: SequenceDiagnostics
    anp: SequenceDiagnostics
    agree: bool
    stage_i: int                # stage at which the limit gap < tol
    onset_k: int                # index from which both k-residuals < tol
    terms: tuple                # three-term decomposition at (stage_i, k)
    identity_holds: bool


def equivalence_witness(seq, tol=Q(1, 10**6), dp=None,
                        anp=None) -> EquivalenceReport:
    """Evaluates both sequence criteria and the exact three-term
    decomposition
        ||v_k|| - ||w|| = (||v_k|| - ||pi_i v_k||)
                        + (||pi_i v_k|| - ||pi_i w||)
                        + (||pi_i w|| - ||w||)
    at the first (i, k) where the outer terms are small; pi_i w is the ANP
    stage-i limit, the stage-i vector of the last element.  dp and anp,
    when given, are the two diagnostics of seq at tol, and are not
    recomputed.  Disagreement of the two verdicts is a bug signal, never a
    result."""
    tol = Q(tol)
    dp = dp_diagnostic(seq, tol) if dp is None else dp
    anp = anp_diagnostic(seq, tol) if anp is None else anp
    if not anp.weak_star_convergent:
        raise ValueError("sequence is not stagewise convergent within tol")
    M = _common_stage(seq)
    system = seq[0].system
    top = system.stage(M)
    nw = norm_eval(top, anp.stage_limit)
    third = tol if tol > 0 else Q(1, 10**12)
    stage_i = next((i for i in range(1, M + 1) if nw - norm_eval(
        system.stage(i), project(seq[-1], i)) < third), M)
    space_i = system.stage(stage_i)
    wi = project(seq[-1], stage_i)

    def unsettled(k):
        return anp.norm_residuals[k] >= third or norm_eval(
            space_i, linalg.vec_sub(project(seq[k], stage_i), wi)) >= third

    # One past the last unsettled term, found from the end (the last index
    # when that term is the last).
    bad = next((k for k in reversed(range(len(seq))) if unsettled(k)), -1)
    onset_k = min(bad + 1, len(seq) - 1)
    cv = seq[onset_k]
    nk = norm_eval(top, project(cv, M))
    nik = norm_eval(space_i, project(cv, stage_i))
    niw = norm_eval(space_i, wi)
    terms = (nk - nik, nik - niw, niw - nw)
    return EquivalenceReport(
        dp, anp, dp.uniform_within_tol == anp.norm_converges,
        stage_i, onset_k, terms, sum(terms) == nk - nw)


# ---------------------------------------------------------------------------
# Quotient-restriction (GFDA) check

def _basis_matrix(G):
    """Submatrix of G on a maximal independent column subset."""
    pivots = linalg.column_space_basis(G)
    return tuple(tuple(row[j] for j in pivots) for row in G)


def _coordinates(B, A):
    """Solve B X = A exactly for full-column-rank B (A in the column
    space of B)."""
    Bt = linalg.transpose(B)
    gram_inv = linalg.inverse(linalg.mat_mul(Bt, B))
    return linalg.mat_mul(gram_inv, linalg.mat_mul(Bt, A))


@dataclass(frozen=True)
class GfdaReport:
    stage_verdicts: tuple
    certify: CertifyReport
    passes: bool


def gfda_check(system: InverseSystem, gen: SubspaceGenerator, stages: int,
               query: DeterminingQuery = None) -> GfdaReport:
    """Checks whether the generated slice admits a good finite-dimensional
    approximation surrogate: the stage restriction a -> g_i(a), from the
    parameter space with the stage-M pulled-back norm onto its image with
    the stage norm, must be a quotient map at every requested stage, and
    the determining certification must pass."""
    if not 1 <= stages <= gen.top_stage:
        raise ValueError("stages outside the generator range")
    M = gen.top_stage
    domain = parameter_space(gen, M)
    verdicts = []
    for i in range(1, stages + 1):
        G = gen.matrix(i)
        if linalg.rank(G) == 0:
            raise ValueError(f"zero generator matrix at stage {i}")
        B = _basis_matrix(G)
        image = _pullback(system.stage(i), B)
        verdicts.append(is_quotient_map(linear_map(domain, image,
                                                   _coordinates(B, G))))
    if query is None:
        n = max(1, min(stages, M - 1))
        query = DeterminingQuery(system, gen, RhoSchedule((Q(1, 2),) * n),
                                 Q(1, 4), M)
    cert = eps_determining_certify(query)
    passes = all(v.verdict for v in verdicts) and cert.kind == "certificate"
    return GfdaReport(tuple(verdicts), cert, passes)


def rescaled_image_presentation(system: InverseSystem,
                                gen: SubspaceGenerator):
    """Rebuilds the slice with every stage replaced by the generator image
    carrying the pushforward (quotient) norm from the stage-M parameter
    norm, so each restriction becomes a quotient map by construction.
    Returns (new_system, new_generator).  The rescaling typically enlarges
    early-stage norms and thereby manufactures violating pairs."""
    M = gen.top_stage
    domain = parameter_space(gen, M)
    extremes = ball_extreme_points(domain)
    bases = [_basis_matrix(gen.matrix(i)) for i in range(1, M + 1)]
    mats = [_coordinates(B, gen.matrix(i)) for i, B in enumerate(bases, 1)]
    spaces = [vpoly_space([linalg.mat_vec(X, e) for e in extremes],
                          label=f"rescaled_{i}")
              for i, X in enumerate(mats, 1)]
    bonds = [linear_map(spaces[i], spaces[i - 1],
                        _coordinates(bases[i - 1],
                                     system.bond(i).mat_mul(bases[i])))
             for i in range(1, M)]
    new_system = InverseSystem(lambda j: spaces[j - 1],
                               lambda j: bonds[j - 1], M,
                               f"{system.label}-rescaled")
    return new_system, SubspaceGenerator(new_system, mats)

"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the gauge is computed by
ray bisection over a hull-membership test, vertices by brute-force
intersection of d-subsets of active constraints, and every elimination an
oracle needs by rref_reference, Gauss-Jordan over the rationals, never by
linalg's integer kernel.
"""

import itertools
import math
import random

from banachlim import linalg
from banachlim import space as space_mod
from banachlim.determining import Counterexample
from banachlim.linmap import (EXACT, LinearMap, OpNormResult, linear_map,
                              min_norm_preimage)
from banachlim.scalar import (Q, ZERO, ONE, format_scalar, parse_scalar,
                              sqrt_bracket, to_float)
from banachlim.simplex import LinearProgram, OPTIMAL
from banachlim.space import (NormSpecError, _canonical_sign,
                             ball_extreme_points, dual_space, hull_gauge,
                             is_l2, norm_eval, norm_eval_sq)

_FACET_DIM = space_mod._FACET_DIM         # the default, before any patch


def rref_reference(rows, ncols):
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


def rank_reference(A):
    return len(rref_reference(A, len(A[0]))[1]) if A else 0


def solve_reference(A, b):
    """One solution x of A x = b by rref_reference, or None."""
    n = len(A[0]) if A else 0
    rows, pivots = rref_reference(
        [list(a) + [Q(bi)] for a, bi in zip(A, b)], n)
    if any(row[n] != 0 for row in rows[len(pivots):]):
        return None
    x = [ZERO] * n
    for row, c in zip(rows, pivots):
        x[c] = row[n]
    return tuple(x)


def nullspace_reference(A):
    n = len(A[0]) if A else 0
    rows, pivots = rref_reference(A, n)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [ZERO] * n
        v[f] = ONE
        for row, c in zip(rows, pivots):
            v[c] = -row[f]
        basis.append(tuple(v))
    return basis


def inverse_reference(A):
    n = len(A)
    rows, pivots = rref_reference(
        [list(a) + [ONE if i == j else ZERO for j in range(n)]
         for i, a in enumerate(A)], n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


def unscaled_vertices(halfspaces, dim):
    """space._integer_vertices with each primitive (p, w) as the rational
    point p / w and each active bitmask as its set of halfspace indices:
    [point, active set] per vertex, in its order."""
    return [[tuple(Q(v, pt[-1]) for v in pt[:-1]),
             {h for h in range(len(halfspaces)) if mask >> h & 1}]
            for pt, mask in space_mod._integer_vertices(halfspaces, dim)]


def halfspace_polytope_reference(halfspaces, dim):
    """unscaled_vertices in rational arithmetic, as the enumeration was
    before the integer kernel (elimination by rref_reference): [point,
    active set] per vertex, in the same order."""
    def adjacent(i, j):
        common = verts[i][1] & verts[j][1]
        return len(common) >= dim - 1 and not any(
            common <= verts[k][1] for k in range(len(verts))
            if k != i and k != j)

    pairs = linalg.transpose(halfspaces[::2])
    idx = [2 * i for i in rref_reference(pairs, len(pairs[0]))[1]]
    if len(idx) < dim:
        raise space_mod.NormSpecError("halfspaces do not bound a polytope")
    signed = [(c, tuple(-v for v in c)) for c in linalg.transpose(
        inverse_reference([halfspaces[i] for i in idx]))]
    verts = []
    for side in itertools.product((0, 1), repeat=dim):
        pt = tuple(map(sum, zip(*(signed[j][s] for j, s in enumerate(side)))))
        verts.append([pt, {idx[j] + s for j, s in enumerate(side)}])
    for h, a in enumerate(halfspaces):
        if h - h % 2 in idx:
            continue
        vals = [linalg.dot(a, pv[0]) for pv in verts]
        inside = [i for i, t in enumerate(vals) if t < 1]
        on = [i for i, t in enumerate(vals) if t == 1]
        outside = [i for i, t in enumerate(vals) if t > 1]
        for i in on:
            verts[i][1].add(h)
        if not outside:
            continue
        new_verts = []
        for i in inside:
            for j in outside:
                if not adjacent(i, j):
                    continue
                ti, tj = vals[i], vals[j]
                lam = (1 - ti) / (tj - ti)
                pt = tuple(pi + lam * (pj - pi)
                           for pi, pj in zip(verts[i][0], verts[j][0]))
                new_verts.append((pt, (verts[i][1] & verts[j][1]) | {h}))
        index = {verts[i][0]: verts[i] for i in inside + on}
        for pt, active in new_verts:
            index.setdefault(pt, [pt, set()])[1] |= active
        verts = list(index.values())
    return verts


def compose(S, T):
    """The linear map S after T."""
    if S.coords is not None and T.coords is not None:
        return LinearMap(T.source, S.target, coords=tuple(
            None if c is None else T.coords[c] for c in S.coords))
    return LinearMap(T.source, S.target, S.mat_mul(T.matrix))


def opnorm_over_vertices_reference(T, vertices):
    """max ||T v|| over the rational vertices, each image by T in Fractions
    and its norm by norm_eval (norm_eval_sq for an l2 target, bracketed by
    sqrt_bracket); the first maximiser is the witness."""
    size = norm_eval_sq if is_l2(T.target) else norm_eval
    best, witness = max(((size(T.target, T(v)), v) for v in vertices),
                        key=lambda pair: pair[0])
    if size is norm_eval_sq:
        lo, hi = sqrt_bracket(best)
        return OpNormResult((lo + hi) / 2, lo, hi, EXACT, witness, best)
    return OpNormResult(best, best, best, EXACT, witness, best * best)


def min_preimage_norm_sq_reference(C):
    """The square of the minimal preimage norm under a surjective C: the
    gauge of conv(+-C e) over the rational source-ball extreme points e,
    mapped by C in Fractions, else the least-norm preimage's norm."""
    try:
        points = ball_extreme_points(C.source)
    except NormSpecError:
        return lambda v: norm_eval_sq(C.source, min_norm_preimage(C, v)[0])
    gauge = hull_gauge(dict.fromkeys(
        _canonical_sign(w) for w in map(C, points) if any(w)), C.target.dim)
    return lambda v: gauge(v) ** 2


def map_to_json(T, source_label=None, target_label=None):
    """A linear map as a JSON object: its space labels and its matrix."""
    return {"source": source_label or T.source.label,
            "target": target_label or T.target.label,
            "matrix": [[format_scalar(v) for v in row] for row in T.matrix]}


def map_from_json(obj, spaces):
    """map_to_json read back; spaces: mapping from label to NormedSpace."""
    src = spaces[obj["source"]]
    tgt = spaces[obj["target"]]
    return linear_map(src, tgt, [[parse_scalar(v) for v in row]
                                 for row in obj["matrix"]])


def count_lp_solves(monkeypatch):
    """List that gains one entry per LinearProgram.solve call."""
    solves = []
    solve = LinearProgram.solve

    def counted(self):
        solves.append(self)
        return solve(self)

    monkeypatch.setattr(LinearProgram, "solve", counted)
    return solves


def lower_enumeration_caps(monkeypatch, cap):
    """Enumerate no rows-form ball above dimension cap: space's
    vertex-enumeration cap becomes cap and its facet dimension at most cap,
    so larger balls take the LP routes (or refuse to list vertices)."""
    monkeypatch.setattr(space_mod, "_VERTEX_CAP", cap)
    monkeypatch.setattr(space_mod, "_FACET_DIM", min(_FACET_DIM, cap))


def hull_contains(vertices, x):
    """Is x in conv(+-vertices)?  LP feasibility, independent of gauge."""
    lp = LinearProgram()
    n = len(vertices)
    lpos = [lp.var() for _ in range(n)]
    lneg = [lp.var() for _ in range(n)]
    total = lp.var()
    for i in range(len(x)):
        coeffs = {}
        for j, v in enumerate(vertices):
            coeffs[lpos[j]] = v[i]
            coeffs[lneg[j]] = -v[i]
        lp.add_eq(coeffs, x[i])
    cs = {h: ONE for h in lpos + lneg}
    cs[total] = ONE
    lp.add_eq(cs, ONE)  # sum of masses + slack = 1  <=> sum <= 1
    lp.minimize({})
    status, _, _ = lp.solve()
    return status == OPTIMAL


def min_norm_on_cube_sphere(space):
    """Exact min of a polytopal norm over the l-inf unit sphere: one LP per
    cube face x_f = 1, |x_k| <= 1 (the -1 faces mirror them).  Rows r
    (hpoly, linf) give ||x|| = min t with +-r.x <= t; generators g (vpoly,
    l1) give min sum(l+ + l-) with x = sum (l+ - l-) g."""
    spec, d = space.spec, space.dim
    if spec.kind == "hpoly":
        rows, gens = spec.functionals, None
    elif spec.kind == "vpoly":
        rows, gens = None, spec.vertices
    else:       # weighted l1 / linf: the axes scaled by 1/w or by w
        scale = (lambda w: w) if spec.p == "inf" else (lambda w: ONE / w)
        axes = [[scale(w) if j == i else ZERO for j in range(d)]
                for i, w in enumerate(spec.weights)]
        rows, gens = (axes, None) if spec.p == "inf" else (None, axes)
    best = None
    for face in range(d):
        lp = LinearProgram()
        xs = [lp.var(free=True) for _ in range(d)]
        for k, x in enumerate(xs):
            if k == face:
                lp.add_eq({x: ONE}, ONE)
            else:
                lp.add_le({x: ONE}, ONE)
                lp.add_le({x: -ONE}, ONE)
        if rows is not None:
            t = lp.var()
            for r in rows:
                for sgn in (ONE, -ONE):
                    lp.add_le({**{x: sgn * c for x, c in zip(xs, r)},
                               t: -ONE}, ZERO)
            lp.minimize({t: ONE})
        else:
            lam = [(lp.var(), lp.var()) for _ in gens]
            for k, x in enumerate(xs):
                coeffs = {x: ONE}
                for (hp, hn), g in zip(lam, gens):
                    coeffs[hp], coeffs[hn] = -g[k], g[k]
                lp.add_eq(coeffs, ZERO)
            lp.minimize({h: ONE for pair in lam for h in pair})
        status, _, value = lp.solve()
        assert status == OPTIMAL
        best = value if best is None else min(best, value)
    return best


def gauge_by_ray_bisection(vertices, x, tol=1e-10):
    """Scale x until it sits on the hull boundary; gauge = scale factor."""
    if all(v == 0 for v in x):
        return 0.0
    hi = 1.0
    while not hull_contains(vertices, [Q(v) / _rat(hi) for v in x]):
        hi *= 2.0
        if hi > 1e9:
            raise AssertionError("vertices do not span / unbounded gauge")
    lo = 0.0
    # gauge(x) = min t with x/t in hull; bisect on t in (lo, hi].
    while hi - lo > tol * max(1.0, hi):
        mid = (lo + hi) / 2.0
        if hull_contains(vertices, [Q(v) / _rat(mid) for v in x]):
            hi = mid
        else:
            lo = mid
    return hi


def verify_lipschitz(curve, M=None, samples=64, tol=1e-9):
    """A sampled check of a curve's declared Lipschitz bound, on adjacent
    sample-grid pairs: ||f(t) - f(s)||_M <= L |t - s| + tol."""
    M = M if M is not None else curve.system.max_stage
    ts = [i / samples for i in range(samples + 1)]
    vals = [curve.values(t, M) for t in ts]
    for i in range(samples):
        diff = [Q(a - b) for a, b in zip(vals[i + 1], vals[i])]
        gap = to_float(norm_eval(curve.system.stage(M), diff))
        if gap > curve.lipschitz_bound * (ts[i + 1] - ts[i]) + tol:
            return False
    return True


def _rat(f):
    from fractions import Fraction
    return Q(Fraction(f))


def vertices_by_subset_enum(halfspaces, dim):
    """All feasible intersections of d active constraints (oracle): one
    rref_reference of [rows | 1] per d-subset whose rows are independent,
    read off the reduced rows.  A subset holding a row beside its negation
    (or a zero row) is singular and skipped unreduced."""
    rows = [tuple(a) for a in halfspaces]
    negs = [tuple(-x for x in a) for a in rows]
    out = set()
    for combo in itertools.combinations(range(len(rows)), dim):
        subset = [rows[i] for i in combo]
        if any(negs[i] in subset for i in combo):
            continue
        reduced, pivots = rref_reference([r + (ONE,) for r in subset], dim)
        if len(pivots) < dim:
            continue
        pt = tuple(r[dim] for r in reduced)
        if all(linalg.dot(a, pt) <= 1 for a in rows):
            out.add(pt)
    return out


def irredundant_reference(vectors, dim):
    """(rows, vertices) of the ball {x : |r.x| <= 1 for every row r}: the
    rows (each up to sign, zero rows and repeats dropped) whose r.x = 1 is
    a facet, i.e. the vertices on it have rank dim, and the vertices, the
    feasible points with r.x = +-1 on dim independent rows.  For generators
    the rows are the vertices of conv(+-G) up to sign (the polar test)."""
    rows = set()
    for v in vectors:
        if any(x != 0 for x in v):
            lead = next(x for x in v if x != 0)
            rows.add(tuple(Q(x) if lead > 0 else -Q(x) for x in v))
    verts = set()
    for combo in itertools.combinations(rows, dim):
        try:
            inv = inverse_reference(combo)
        except ValueError:              # dependent rows
            continue
        # r.(inv s) = (inv^T r).s, tested for every sign vector s on the
        # integers (inv^T r) * den, den its common denominator.
        tests = []
        for r in rows:
            t = linalg.mat_vec(linalg.transpose(inv), r)
            den = math.lcm(*(x.denominator for x in t))
            tests.append(([x.numerator * (den // x.denominator) for x in t],
                          den))
        for signs in itertools.product((1, -1), repeat=dim):
            if all(abs(sum(s * n for s, n in zip(signs, ns))) <= den
                   for ns, den in tests):
                verts.add(linalg.mat_vec(inv, signs))
    return {r for r in rows if rank_reference(
        [v for v in verts if linalg.dot(r, v) == 1]) == dim}, verts


def random_rational_vector(rng, dim, lo=-3, hi=3, den=4):
    return tuple(Q(rng.randint(lo * den, hi * den), den) for _ in range(dim))


def random_spanning_vectors(rng, dim, count, lo=-3, hi=3, den=4):
    while True:
        vecs = [random_rational_vector(rng, dim, lo, hi, den)
                for _ in range(count)]
        if rank_reference(vecs) == dim and all(any(x != 0 for x in v)
                                            for v in vecs):
            return vecs


def sequence_diagnostics_reference(seq, tol):
    """invlim_convergence, dp_diagnostic, anp_diagnostic and
    equivalence_witness by their forward definitions, every pair decided on
    exact squares (O(K^3) norm evaluations per stage): the least onset K
    whose whole tail is pairwise within tol, and the least k from which
    every term is settled.  The equivalence fields are None when the
    sequence is not stagewise convergent."""
    system = seq[0].system
    M = min(cv.top_stage for cv in seq)
    tol = Q(tol)

    def within(space, a, b):
        return tol >= 0 and norm_eval_sq(
            space, linalg.vec_sub(a, b)) <= tol * tol

    onsets = []
    for j in range(1, M + 1):
        pts = [cv.stages[j - 1] for cv in seq]
        onsets.append(next((K for K in range(len(pts) - 1) if all(
            within(system.stage(j), a, b)
            for i, a in enumerate(pts[K:]) for b in pts[K + i + 1:])), None))
    converges = all(k is not None for k in onsets)
    limits = tuple(None if k is None else seq[-1].stages[j]
                   for j, k in enumerate(onsets))
    top = system.stage(M)
    norms_m = [norm_eval(top, cv.stages[M - 1]) for cv in seq]
    profile = tuple(max(nm - norm_eval(system.stage(i), cv.stages[i - 1])
                        for nm, cv in zip(norms_m, seq))
                    for i in range(1, M + 1))
    out = {"onsets": tuple(onsets), "stage_limits": limits,
           "converges": converges, "uniformity": profile,
           "norm_residuals": None, "strong_residuals": None,
           "norm_converges": False, "strong_converges": None,
           "stage_i": None, "onset_k": None, "terms": None}
    if not converges:
        return out
    w = seq[-1].stages[M - 1]
    nw = norm_eval(top, w)
    out["norm_residuals"] = tuple(abs(n - nw) for n in norms_m)
    out["strong_residuals"] = tuple(
        norm_eval(top, linalg.vec_sub(cv.stages[M - 1], w)) for cv in seq)
    for key in ("norm", "strong"):
        rs = out[key + "_residuals"]
        out[key + "_converges"] = any(all(r < tol for r in rs[k:])
                                      for k in range(len(rs) - 1))
    third = tol if tol > 0 else Q(1, 10**12)
    stage_i = next((i for i in range(1, M + 1) if nw - norm_eval(
        system.stage(i), seq[-1].stages[i - 1]) < third), M)
    space_i = system.stage(stage_i)
    wi = seq[-1].stages[stage_i - 1]
    onset_k = next((k for k in range(len(seq)) if all(
        norm_eval(space_i, linalg.vec_sub(cv.stages[stage_i - 1], wi)) < third
        and abs(norm_eval(top, cv.stages[M - 1]) - nw) < third
        for cv in seq[k:])), len(seq) - 1)
    nk = norms_m[onset_k]
    nik = norm_eval(space_i, seq[onset_k].stages[stage_i - 1])
    niw = norm_eval(space_i, wi)
    out.update(stage_i=stage_i, onset_k=onset_k,
               terms=(nk - nik, nik - niw, niw - nw))
    return out


def greedy_cluster_reference(seq, eps):
    """diagonal_subsequence by its definition, distances decided on exact
    squares: per stage, each kept index joins the first cluster whose
    representative is within eps, and the largest cluster is kept."""
    system = seq[0].system
    eps = Q(eps)
    idxs = list(range(len(seq)))
    for j in range(1, min(cv.top_stage for cv in seq) + 1):
        space = system.stage(j)
        clusters = []
        for k in idxs:
            pt = seq[k].stages[j - 1]
            home = next((c for c in clusters if eps >= 0 and norm_eval_sq(
                space, linalg.vec_sub(pt, c[0])) <= eps * eps), None)
            if home is None:
                clusters.append((pt, [k]))
            else:
                home[1].append(k)
        idxs = max((members for _, members in clusters), key=len)
    return sorted(idxs)


def float_margin_fn(q):
    """The search's float margin of one pair (a, b), computed alone: every
    stage image a plain matrix-vector product, every norm a 1-D numpy
    reduction, and every constraint term scaled by max(nu(a), nu(b))
    before the min; -1.0 when that scale is below 1e-12."""
    import numpy as np

    def float_norm(space):
        spec = space.spec
        if spec.kind != "lp":
            A = np.array([[to_float(c) for c in row] for row in (
                spec.functionals if spec.kind == "hpoly"
                else ball_extreme_points(dual_space(space)))])
            return lambda y: np.abs(y @ A.T).max()
        w = np.array([to_float(x) for x in spec.weights])
        return {"1": lambda y: np.abs(y * w).sum(),
                "inf": lambda y: np.abs(y * w).max(),
                "2": lambda y: np.sqrt(((y * w) ** 2).sum())}[spec.p]

    N, M = q.rho.length, q.eval_stage
    rho = [to_float(r) for r in q.rho.values]
    eps = to_float(q.eps)
    stages = list(range(1, N + 1)) + [M]
    G = {i: np.array([[to_float(c) for c in row] for row in q.gen.matrix(i)])
         for i in stages}
    norm = {i: float_norm(q.system.stage(i)) for i in stages}

    def margin(a, b):
        va = {i: G[i] @ a for i in stages}
        vb = {i: G[i] @ b for i in stages}
        nu_a, nu_b = float(norm[M](va[M])), float(norm[M](vb[M]))
        s = max(nu_a, nu_b)
        if s < 1e-12:
            return -1.0
        terms = []
        for i in range(1, N + 1):
            r = rho[i - 1]
            terms.append((float(norm[i](va[i])) - (1 - r) * nu_a) / s)
            terms.append((float(norm[i](vb[i])) - (1 - r) * nu_b) / s)
        terms.append((s / N - float(norm[N](va[N] - vb[N]))) / s)
        terms.append((float(norm[M](va[M] - vb[M])) - eps * s) / s)
        return min(terms)
    return margin


def sequential_search_reference(q):
    """eps_determining_search as a plain sequential loop: each start runs its
    pattern search to the end before the next begins, every pair is scored
    alone (float_margin_fn), and each of the (up to ten) best candidates is
    rationalized and re-verified with verify_pair at both denominators."""
    import numpy as np
    from banachlim.determining import SearchReport, verify_pair
    from banachlim.scalar import rationalize

    d = q.gen.param_dim
    margin = float_margin_fn(q)

    rng = random.Random(q.search.seed)
    starts = []
    for i in range(d):
        for j in range(d):
            if i != j:
                for sgn in (1.0, -1.0):
                    s = np.zeros(2 * d)
                    s[i], s[d + j] = 1.0, sgn
                    starts.append(s)
    for _ in range(q.search.starts):
        starts.append(np.array([rng.gauss(0, 1) for _ in range(2 * d)]))
    evals, best_f, best_x, candidates = 0, -math.inf, None, []
    for s0 in starts:
        x = s0 / (np.abs(s0).max() or 1.0)
        f = margin(x[:d], x[d:])
        evals += 1
        step, iters = 0.5, 0
        while step > 1e-5 and iters < q.search.iters:
            moved = False
            for k in range(2 * d):
                for sgn in (1.0, -1.0):
                    y = x.copy()
                    y[k] += sgn * step
                    m = np.abs(y).max()
                    if m > 0:
                        y /= m
                    fy = margin(y[:d], y[d:])
                    evals += 1
                    if fy > f:
                        x, f, moved = y, fy, True
            if not moved:
                step *= 0.5
            iters += 1
        if f > best_f:
            best_f, best_x = f, x.copy()
        if f > 1e-9:
            candidates.append((f, x.copy()))

    def rational_pair(x, den):
        return (tuple(rationalize(float(v), den) for v in x[:d]),
                tuple(rationalize(float(v), den) for v in x[d:]))

    candidates.sort(key=lambda t: -t[0])
    best_ce, best_ce_pair, best_ce_f = None, None, -math.inf
    for f, x in candidates[:10]:
        for den in (10**3, q.search.max_den):
            pair = rational_pair(x, den)
            ce = verify_pair(q, *pair)
            if ce is not None and (best_ce is None
                                   or ce.violation > best_ce.violation):
                best_ce, best_ce_pair, best_ce_f = ce, pair, f
    if best_ce is not None:
        return SearchReport("counterexample", best_ce, best_ce_f,
                            best_ce_pair, len(starts), evals)
    return SearchReport("not-found", None, best_f,
                        rational_pair(best_x, q.search.max_den),
                        len(starts), evals)


def _reference_bracket(space, x):
    """Certified (lo, hi) of ||x|| in Fraction arithmetic: lp norms by
    norm_eval's rational path, polytopes by dot products with the
    functionals or with the vertices of the polar ball."""
    if is_l2(space):
        return sqrt_bracket(norm_eval_sq(space, x))
    spec = space.spec
    if spec.kind == "lp":
        n = norm_eval(space, x)
    elif spec.kind == "hpoly":
        n = max(abs(linalg.dot(f, x)) for f in spec.functionals)
    else:
        n = max(linalg.dot(f, x)
                for f in ball_extreme_points(dual_space(space)))
    return n, n


def verify_pair_reference(q, a, a_prime):
    """determining.verify_pair in Fraction arithmetic, one mat_vec per
    stage image, as it was before the integer kernel."""
    gen, M, N = q.gen, q.eval_stage, q.rho.length
    a = gen.param_vector(a)
    ap = gen.param_vector(a_prime)
    top = q.system.stage(M)
    vs = [linalg.mat_vec(gen.matrix(M), x) for x in (a, ap)]
    brs = [_reference_bracket(top, v) for v in vs]
    if brs[0][1] == 0 or brs[1][1] == 0:
        return None
    tail_slacks = []
    for i in range(1, N + 1):
        rho_i = q.rho.values[i - 1]
        row, ims = [], []
        for x, v, (_, nhi) in zip((a, ap), vs, brs):
            ims.append(v if i == M else linalg.mat_vec(gen.matrix(i), x))
            slack = _reference_bracket(q.system.stage(i), ims[-1])[0] \
                - (ONE - rho_i) * nhi
            if slack <= 0:
                return None
            row.append(slack)
        tail_slacks.append(tuple(row))
    mx = (max(brs[0][0], brs[1][0]), max(brs[0][1], brs[1][1]))
    d_n = _reference_bracket(q.system.stage(N), linalg.vec_sub(*ims))
    prox = mx[0] / N - d_n[1]
    if prox <= 0:
        return None
    d_m = _reference_bracket(top, linalg.vec_sub(*vs))
    if d_m[0] < q.eps * mx[1]:
        return None
    return Counterexample(tuple(a), tuple(ap), tuple(vs[0]), tuple(vs[1]),
                          tuple(tail_slacks), prox, d_m[0] / mx[1])

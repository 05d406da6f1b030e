import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from banachlim import linalg, space
from banachlim.determining import _FloatNorms
from banachlim.scalar import Q, ZERO, ONE, to_float
from banachlim.space import (DimensionMismatch, HPolytope, LpNorm,
                             NormedSpace, NormSpecError, VPolytope,
                             ball_extreme_points, ball_extreme_record,
                             dual_space, hpoly_space,
                             hull_gauge, lp_space, norm_eval, norm_eval_sq,
                             space_from_json, space_to_json, spec_from_json,
                             spec_to_json, validate_norm_spec, vpoly_space)

from oracles import (gauge_by_ray_bisection, halfspace_polytope_reference,
                     irredundant_reference, lower_enumeration_caps,
                     random_spanning_vectors, unscaled_vertices,
                     vertices_by_subset_enum)


def test_hpoly_linf_identity():
    S = hpoly_space([(1, 0), (0, 1)])
    assert norm_eval(S, (Q(3), Q(-4))) == 4


def test_vpoly_l1_identity():
    S = vpoly_space([(1, 0), (0, 1)])
    assert norm_eval(S, (Q(3), Q(-4))) == 7


def test_lp_norms_closed_form():
    S1 = lp_space(1, weights=[Q(1), Q(1, 2)])
    assert norm_eval(S1, (Q(2), Q(4))) == 4
    Sinf = lp_space("inf", weights=[Q(1), Q(3)])
    assert norm_eval(Sinf, (Q(2), Q(1))) == 3
    S2 = lp_space(2, dim=2)
    assert abs(to_float(norm_eval(S2, (Q(3), Q(4)))) - 5.0) < 1e-12


def test_dimension_mismatch():
    S = lp_space(1, dim=2)
    with pytest.raises(DimensionMismatch):
        norm_eval(S, (ONE,))


@pytest.mark.parametrize("p", [1, 2, "inf"])
@pytest.mark.parametrize("x", [(ONE,), (ONE, ONE, ONE, ONE)])
def test_norm_eval_sq_dimension_mismatch(p, x):
    """The exact square checks the length on every norm, l2 included
    (a truncating zip once gave ||(1,)||^2 = 1 in l2^3)."""
    with pytest.raises(DimensionMismatch):
        norm_eval_sq(lp_space(p, dim=3), x)


def test_validate_norm_degenerate():
    with pytest.raises(NormSpecError, match="^functionals do not span"):
        validate_norm_spec(HPolytope(((ONE, ZERO),)), 2)
    with pytest.raises(NormSpecError, match="^vertices do not span"):
        validate_norm_spec(VPolytope(((ONE, ONE), (Q(2), Q(2)))), 2)
    validate_norm_spec(LpNorm("2", (ONE, ONE, ONE)), 3)
    with pytest.raises(NormSpecError,
                       match="^weights must be strictly positive$"):
        validate_norm_spec(LpNorm("1", (ONE, ZERO)), 2)
    with pytest.raises(NormSpecError, match="^p='3' not in"):
        validate_norm_spec(LpNorm("3", (ONE, ONE)), 2)
    with pytest.raises(NormSpecError, match="^p='3' not in {1,2,inf}; "
                       "weight count != dim; weights must be strictly "
                       "positive$"):
        validate_norm_spec(LpNorm("3", (-ONE,)), 2)


def test_unknown_specs_are_refused():
    with pytest.raises(NormSpecError,
                       match="^spec.kind: unknown norm kind 'ball'$"):
        spec_from_json({"kind": "ball"})
    with pytest.raises(NormSpecError, match="^unknown spec object$"):
        validate_norm_spec(object(), 2)
    with pytest.raises(NormSpecError, match="^unknown spec object$"):
        spec_to_json(object())


def test_gauge_against_ray_bisection_oracle():
    # Dimensions 2-4 read the gauge off cached facets, 5 and 6 solve the LP.
    rng = random.Random(11)
    for trial in range(14):
        dim = rng.choice([2, 3, 4]) if trial < 12 else trial - 7
        verts = random_spanning_vectors(rng, dim, dim + rng.randint(1, 3))
        S = vpoly_space(verts)
        x = tuple(Q(rng.randint(-5, 5)) for _ in range(dim))
        got = to_float(norm_eval(S, x))
        want = gauge_by_ray_bisection(S.spec.vertices, x)
        assert abs(got - want) < 1e-9


def test_norm_axioms_exact_random():
    rng = random.Random(5)
    for _ in range(8):
        dim = rng.choice([2, 3])
        if rng.random() < 0.5:
            S = hpoly_space(random_spanning_vectors(rng, dim, dim + 2))
        else:
            S = vpoly_space(random_spanning_vectors(rng, dim, dim + 2))
        x = tuple(Q(rng.randint(-4, 4)) for _ in range(dim))
        y = tuple(Q(rng.randint(-4, 4)) for _ in range(dim))
        t = Q(rng.randint(-6, 6), rng.randint(1, 4))
        nx, ny = norm_eval(S, x), norm_eval(S, y)
        assert norm_eval(S, tuple(-v for v in x)) == nx
        assert norm_eval(S, linalg.vec_scale(t, x)) == abs(t) * nx
        assert norm_eval(S, linalg.vec_add(x, y)) <= nx + ny
        assert (nx == 0) == all(v == 0 for v in x)


def test_dual_lp_spaces():
    S = lp_space("inf", dim=2)
    D = dual_space(S)
    assert D.spec.p == "1"
    assert norm_eval(D, (ONE, ONE)) == 2
    W = lp_space(1, weights=[Q(2), Q(1, 3)])
    DW = dual_space(W)
    assert DW.spec.p == "inf"
    assert DW.spec.weights == (Q(1, 2), Q(3))


@pytest.mark.parametrize("label, dual", [("", ""), ("x", "x*"),
                                          ("x*", "x"), ("x**", "x*"),
                                          ("x***", "x")])
@pytest.mark.parametrize("build", [
    lambda label: lp_space(1, weights=[Q(2), Q(1, 3)], label=label),
    lambda label: lp_space("inf", weights=[Q(3, 4)], label=label),
    lambda label: lp_space(2, weights=[Q(5), ONE, Q(2, 7)], label=label),
    lambda label: hpoly_space([(1, 0), (0, 1), (1, 1)], label=label),
    lambda label: vpoly_space([(1, 0), (0, 1), (2, 3)], label=label)],
    ids=["l1", "linf", "l2", "h", "v"])
def test_dual_is_built_once_and_its_dual_is_the_space(build, label, dual):
    S = build(label)
    D = dual_space(S)
    assert D is dual_space(S) is S.dual
    assert D.label == dual
    DD = dual_space(D)
    assert DD is not S
    assert DD.spec == S.spec
    assert (DD == S) == (not label.endswith("**"))


def test_dual_hpoly_gauge():
    S = hpoly_space([(1, 1), (1, -1)])
    D = dual_space(S)
    assert isinstance(D.spec, VPolytope)
    got = to_float(norm_eval(D, (Q(2), ZERO)))
    want = gauge_by_ray_bisection(D.spec.vertices, (Q(2), ZERO))
    assert abs(got - want) < 1e-9
    assert norm_eval(D, (Q(2), ZERO)) == 2


def test_bipolar_exact_random():
    rng = random.Random(23)
    for _ in range(10):
        dim = rng.choice([2, 3])
        vecs = random_spanning_vectors(rng, dim, dim + 2)
        S = hpoly_space(vecs) if rng.random() < 0.5 else vpoly_space(vecs)
        DD = dual_space(dual_space(S))
        for _ in range(10):
            x = tuple(Q(rng.randint(-5, 5)) for _ in range(dim))
            assert norm_eval(DD, x) == norm_eval(S, x)


def test_duality_inequality_exact():
    rng = random.Random(31)
    for _ in range(6):
        dim = rng.choice([2, 3])
        S = vpoly_space(random_spanning_vectors(rng, dim, dim + 2))
        D = dual_space(S)
        for _ in range(10):
            x = tuple(Q(rng.randint(-4, 4)) for _ in range(dim))
            phi = tuple(Q(rng.randint(-4, 4)) for _ in range(dim))
            assert abs(linalg.dot(phi, x)) <= \
                norm_eval(D, phi) * norm_eval(S, x)


def test_ball_extreme_points_l1_linf():
    S1 = lp_space(1, dim=2)
    pts = set(ball_extreme_points(S1))
    assert pts == {(ONE, ZERO), (-ONE, ZERO), (ZERO, ONE), (ZERO, -ONE)}
    Sinf = lp_space("inf", dim=2)
    assert len(ball_extreme_points(Sinf)) == 4
    with pytest.raises(NormSpecError):
        ball_extreme_points(lp_space(2, dim=2))


def test_ball_extreme_points_weighted():
    S = lp_space(1, weights=[Q(2), Q(1, 2)])
    pts = set(ball_extreme_points(S))
    assert (Q(1, 2), ZERO) in pts and (ZERO, Q(2)) in pts


def test_hpoly_vertices_vs_subset_oracle():
    rng = random.Random(42)
    cases = [(rng.choice([2, 3]), False) for _ in range(8)]
    cases += [(4, False)] * 3 + [(d, True) for d in (2, 3, 4, 2, 3, 4)]
    for dim, through_vertices in cases:
        S = hpoly_space(random_spanning_vectors(rng, dim, dim + 3))
        got = set(ball_extreme_points(S))
        halfspaces = [r for f in S.spec.functionals
                      for r in (f, tuple(-v for v in f))]
        want = vertices_by_subset_enum(halfspaces, dim)
        assert got == want
        for f in S.spec.functionals:
            assert max(abs(linalg.dot(f, v)) for v in got) <= 1
        if through_vertices:
            # A row through dim existing vertices: it cuts at or touches
            # them, so the polytope is no longer simple there.
            a = None
            while a is None:    # no such row through, say, both v and -v
                a = linalg.solve(rng.sample(sorted(got), dim), [ONE] * dim)
            halfspaces += [a, tuple(-x for x in a)]
            assert {pt for pt, _ in unscaled_vertices(halfspaces, dim)} \
                == vertices_by_subset_enum(halfspaces, dim)
    # Cross-polytopes: every vertex lies on 2^(d-1) facets.
    for dim in (3, 4):
        S = hpoly_space([(ONE,) + s for s in
                         itertools.product((ONE, -ONE), repeat=dim - 1)])
        assert set(ball_extreme_points(S)) == {
            tuple(s if j == i else ZERO for j in range(dim))
            for i in range(dim) for s in (ONE, -ONE)}


def test_ball_extreme_record_unscales_to_the_extreme_points():
    # The record is integer rows over one positive denominator: +-each
    # generator in order, or a rows ball's cached enumeration.
    rng = random.Random(2502)
    spaces = [lp_space(p, weights=[Q(rng.randint(1, 6), rng.randint(1, 4))
                                   for _ in range(dim)])
              for p in (1, "inf") for dim in (1, 2, 3)]
    spaces += [build(random_spanning_vectors(rng, dim, dim + 2))
               for build in (hpoly_space, vpoly_space) for dim in (2, 3, 4, 5)]
    for S in spaces + [dual_space(S) for S in spaces]:
        verts, den = ball_extreme_record(S)
        assert type(den) is int and den > 0
        assert all(type(v) is int for p in verts for v in p)
        assert [linalg.unscale(p, den) for p in verts] == \
            ball_extreme_points(S)
        kind, B = space.ball_form(S.spec)
        if kind == "gens":
            assert ball_extreme_points(S) == [
                v for u in B for v in (u, tuple(-x for x in u))]
        else:
            assert (verts, den) == \
                space._symmetric_ball(tuple(map(tuple, B)), S.dim)[:2]
    with pytest.raises(NormSpecError, match="not a polytope"):
        ball_extreme_record(lp_space(2, dim=2))


def test_subset_oracle_matches_the_irredundant_reference():
    # The subset oracle, one reduction per subset with no row beside its
    # negation, finds the vertices that irredundant_reference reads off
    # every sign vector of every independent d-subset.
    rng = random.Random(2503)
    for k in range(36):
        dim = (2, 3, 4)[k % 3]
        vecs = random_spanning_vectors(rng, dim, dim + rng.randint(0, 2))
        for _ in range(rng.randint(0, 2)):
            a = rng.choice(vecs)
            vecs.append(rng.choice([a, tuple(Q(-2) * x for x in a)]))
        halfspaces = [r for f in vecs for r in (f, tuple(-v for v in f))]
        rng.shuffle(halfspaces)
        assert vertices_by_subset_enum(halfspaces, dim) == \
            irredundant_reference(vecs, dim)[1]


def test_norm_attainment_on_dual_vertices():
    rng = random.Random(13)
    for _ in range(6):
        dim = rng.choice([2, 3])
        S = vpoly_space(random_spanning_vectors(rng, dim, dim + 2))
        D = dual_space(S)
        x = tuple(Q(rng.randint(-4, 4)) for _ in range(dim))
        if all(v == 0 for v in x):
            continue
        nx = norm_eval(S, x)
        vals = [abs(linalg.dot(phi, x)) for phi in ball_extreme_points(D)]
        assert max(vals) == nx


_FLAT_D5 = [(1, 0, 2, 0, 0), (0, 1, 0, 0, 3), (0, 0, 0, 1, 0),
            (1, 1, 2, 1, 3), (1, 0, 2, 0, 3)]


@pytest.mark.parametrize("rows", [[(1, 0), (1,)], [(1, 2), (-2, -4)],
                                  _FLAT_D5], ids=["ragged", "flat-d2",
                                                  "flat-d5"])
@pytest.mark.parametrize("build, kind", [(hpoly_space, HPolytope),
                                         (vpoly_space, VPolytope)],
                         ids=["h", "v"])
def test_polytope_builders_refuse_bad_rows(build, kind, rows):
    with pytest.raises(NormSpecError) as want:
        validate_norm_spec(kind(tuple(rows)), len(rows[0]))
    with pytest.raises(NormSpecError) as exc:
        build(rows)
    assert str(exc.value) == str(want.value)


def test_hull_gauge_refuses_flat_generators():
    with pytest.raises(NormSpecError,
                       match="halfspaces do not bound a polytope"):
        hull_gauge([(1, 2, 0), (2, 4, 0), (0, 0, 1)], 3)


def test_dim_cap(monkeypatch):
    with pytest.raises(NormSpecError, match="vertex-enumeration cap 8"):
        ball_extreme_points(lp_space("inf", dim=9))
    S = lp_space("inf", dim=3)
    assert len(ball_extreme_points(S)) == 8
    lower_enumeration_caps(monkeypatch, 2)
    with pytest.raises(NormSpecError, match="vertex-enumeration cap 2"):
        ball_extreme_points(S)


def test_json_round_trip():
    for S in (lp_space(1, weights=[Q(1), Q(1, 2)], label="a"),
              hpoly_space([(1, 0), (0, 1), (1, 1)], label="b"),
              vpoly_space([(1, 0), (0, 1), (2, 3)], label="c")):
        blob = json.dumps(space_to_json(S))
        T = space_from_json(json.loads(blob))
        assert T == S


def test_float_shadow_close():
    rng = random.Random(3)
    x = (1.5, -2.25, 0.75)
    xf = tuple(Q(3, 2) * s for s in (ONE, Q(-3, 2), Q(1, 2)))
    w = [Q(1), Q(1, 2), Q(3)]
    spaces = (hpoly_space(random_spanning_vectors(rng, 3, 5)),
              vpoly_space(random_spanning_vectors(rng, 3, 5)),
              lp_space(1, weights=w), lp_space("inf", weights=w),
              lp_space(2, weights=w))
    exact = [to_float(norm_eval(S, xf)) for S in spaces]
    for S, n in zip(spaces, exact):
        assert abs(_FloatNorms([S])(np.array(x))[0] - n) < 1e-12
    # Stacked, each space's norm of its own copy of x, in one call.
    got = _FloatNorms(spaces)(np.array([x] * 2 * len(spaces)).reshape(2, -1))
    assert got.shape == (2, len(spaces))
    assert (abs(got - exact) < 1e-12).all()


def test_hpoly_and_vpoly_keep_the_same_vectors():
    # phi is redundant among H-rows exactly when it lies in conv(+- the
    # others), the V-polytope test, so both constructors keep one set.
    rng = random.Random(5)
    for _ in range(12):
        d = rng.choice([2, 3])
        vs = random_spanning_vectors(rng, d, rng.randint(d, d + 4))
        assert hpoly_space(vs).spec.functionals == \
            vpoly_space(vs).spec.vertices


def _degenerate_spec(rng, dim):
    """Random spanning rows plus redundant ones: zero rows, scaled copies,
    negated repeats, edge midpoints and face centroids."""
    vs = random_spanning_vectors(rng, dim, rng.randint(dim + 1, dim + 2))
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(vs), rng.choice(vs)
        face = rng.sample(vs, dim)
        vs.append(rng.choice([
            (ZERO,) * dim,
            tuple(Q(rng.randint(1, 3), rng.randint(1, 4)) * x for x in a),
            tuple(-x for x in a),
            tuple((x + y) / 2 for x, y in zip(a, b)),
            tuple(sum(c) / dim for c in zip(*face))]))
    rng.shuffle(vs)
    return vs


def test_irredundant_matches_the_subset_oracle_and_the_lp_branch(
        monkeypatch):
    # Up to _FACET_DIM the kept rows (and generators) are read off one
    # vertex enumeration; the LP branch above it must keep the same ones in
    # the same order, and the ball must have the oracle's vertices.
    rng = random.Random(211)
    specs = [_degenerate_spec(rng, (2, 2, 3, 3, 4)[k % 5]) for k in range(200)]
    for dim in (2, 3, 4):
        # The seed parallelepiped lists its vertices in sign order.
        cube = NormedSpace(dim, HPolytope(linalg.identity(dim)))
        assert ball_extreme_points(cube) == \
            list(itertools.product((ONE, -ONE), repeat=dim))
        specs.append(list(linalg.identity(dim)))
        specs.append([(ONE,) + s for s in
                      itertools.product((ONE, -ONE), repeat=dim - 1)])
    for vs in specs:
        dim = len(vs[0])
        want, vertices = irredundant_reference(vs, dim)
        H, V = hpoly_space(vs), vpoly_space(vs)
        assert set(H.spec.functionals) == want
        assert V.spec.vertices == H.spec.functionals
        with monkeypatch.context() as m:
            m.setattr(space, "_FACET_DIM", 0)
            assert space._irredundant(vs, dim) == H.spec.functionals
        assert set(ball_extreme_points(H)) == vertices
        assert set(ball_extreme_points(V)) == \
            {h for r in want for h in (r, tuple(-x for x in r))}


def _enumeration_rows(rng, dim):
    """Spanning rows for the enumeration tests: int or rational entries
    with denominators up to 10^6, plus zero rows, repeats and scaled
    copies (with either sign)."""
    den = rng.choice((1, 7, 10**6))
    while True:
        rows = [tuple(rng.randint(-5, 5) if den == 1 or rng.random() < 0.3
                      else Q(rng.randint(-den, den), rng.randint(1, den))
                      for _ in range(dim))
                for _ in range(dim + rng.randint(0, 3))]
        if linalg.rank(rows) == dim:
            break
    for _ in range(rng.randint(0, 3)):
        a = rng.choice(rows)
        rows.append(rng.choice([
            (0,) * dim, a, tuple(Q(rng.choice((-3, -1, 2, 5)),
                                   rng.randint(1, den)) * x for x in a)]))
    rng.shuffle(rows)
    return rows


def test_enumeration_matches_the_fraction_reference_in_order():
    # The integer enumeration lists the rational one's vertices in the same
    # order, with the same active sets, and the cached record holds them as
    # the integer rows over the denominator that scaling the rational
    # points gives: cubes (the seed alone), scaled cubes, cross-polytopes
    # (every vertex on 2^(d-1) facets), and random rows with zero, repeated
    # and scaled ones, for d = 1..6, and 72 halfspaces in d = 2, 3.  A rows
    # ball lists the same points as rationals.
    rng = random.Random(41)
    specs = []
    for dim in range(1, 7):
        eye = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        specs.append(eye)
        specs.append([tuple(Q(rng.randint(1, 10**6), rng.randint(1, 10**6))
                            * x for x in r) for r in eye])
        specs.append([(1,) + sg for sg in
                      itertools.product((1, -1), repeat=dim - 1)])
        specs += [_enumeration_rows(rng, dim)
                  for _ in range((40, 40, 30, 20, 8, 4)[dim - 1])]
    # 36 rational points on a circle and on a sphere: every row is a facet,
    # so the active bitmasks run past 64 halfspaces, a machine word.
    specs.append([((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
                  for t in (Q(k, 40) for k in range(36))])
    grid = [Q(k, 5) for k in range(-3, 3)]
    specs.append([(2 * u / n, 2 * v / n, (2 - n) / n) for u in grid
                  for v in grid for n in (1 + u * u + v * v,)])
    for rows in specs:
        dim = len(rows[0])
        halfspaces = [r for f in rows for r in (f, tuple(-v for v in f))]
        # Each vertex p / w is kept as one primitive (p, w) with w > 0.
        assert all(ints[-1] > 0 and math.gcd(*ints) == 1 for ints, _ in
                   space._integer_vertices(halfspaces, dim))
        want = halfspace_polytope_reference(halfspaces, dim)
        assert unscaled_vertices(halfspaces, dim) == want
        rows = tuple(map(tuple, rows))
        assert space._symmetric_ball(rows, dim)[:2] == \
            linalg.scaled_rows([pt for pt, _ in want])
        got = ball_extreme_points(NormedSpace(dim, HPolytope(rows)))
        assert got == [pt for pt, _ in want]
        assert all(type(v) is Fraction for pt in got for v in pt)
    # The facet test runs on the 72 and 90 vertex bitmasks of the last two.
    assert all(all(space._symmetric_ball(rows, len(rows[0]))[2])
               for rows in map(tuple, specs[-2:]))


def test_specs_built_from_lists_evaluate():
    # The cached vertex lists are keyed by the rows, which may be lists.
    V = NormedSpace(2, VPolytope([[1, 0], [0, 1], [1, 1]]))
    assert norm_eval(V, (1, 2)) == 2
    H = NormedSpace(2, HPolytope([[1, 0], [0, 1], [1, 1]]))
    assert set(ball_extreme_points(H)) == {(ONE, ZERO), (ZERO, ONE),
                                           (-ONE, ZERO), (ZERO, -ONE),
                                           (ONE, -ONE), (-ONE, ONE)}

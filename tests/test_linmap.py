import random

import pytest
from hypothesis import given, settings, strategies as st

from banachlim import linalg, linmap, space
from banachlim.scalar import Q, ZERO, ONE, from_float, to_float
from banachlim.linmap import (EXACT, SAMPLED_BOUND, LinearMap, MapVerdict,
                              RangeError, adjoint, is_isometric_embedding,
                              is_one_lipschitz, is_quotient_map, linear_map,
                              min_norm_preimage, operator_norm, quotient_norm)
from banachlim.space import (NormedSpace, VPolytope, ball_extreme_points,
                             hpoly_space, is_l2, lp_space, norm_eval,
                             norm_eval_sq, vpoly_space)

from oracles import (compose, count_lp_solves, hull_contains,
                     lower_enumeration_caps, map_from_json, map_to_json,
                     min_preimage_norm_sq_reference,
                     opnorm_over_vertices_reference, random_rational_vector,
                     random_spanning_vectors)


def _rand_polytope_space(rng, dim):
    vecs = random_spanning_vectors(rng, dim, dim + 2)
    return hpoly_space(vecs) if rng.random() < 0.5 else vpoly_space(vecs)


def _rand_map(rng, src, tgt, lo=-3, hi=3):
    rows = [[Q(rng.randint(lo, hi)) for _ in range(src.dim)]
            for _ in range(tgt.dim)]
    return linear_map(src, tgt, rows)


def test_identity_opnorm_l1():
    S = lp_space(1, dim=3)
    T = linear_map(S, S, linalg.identity(3))
    res = operator_norm(T)
    assert res.certificate_kind == EXACT
    assert res.value == 1


def test_opnorm_into_the_zero_space_and_above_the_cap():
    assert operator_norm(linear_map(lp_space(2, dim=1), lp_space(2, dim=0),
                                    [])).value == 0
    cross = NormedSpace(9, VPolytope(linalg.identity(9)))
    with pytest.raises(space.NormSpecError, match="exceeds"):
        operator_norm(linear_map(lp_space(2, dim=9), cross,
                                 linalg.identity(9)))


def test_opnorm_linf_to_l1():
    T = linear_map(lp_space("inf", dim=2), lp_space(1, dim=1), [[1, 1]])
    res = operator_norm(T)
    assert res.value == 2
    assert tuple(map(abs, res.witness)) == (ONE, ONE)


def test_opnorm_vertex_oracle_random():
    rng = random.Random(17)
    for _ in range(8):
        src = _rand_polytope_space(rng, 3)
        tgt = _rand_polytope_space(rng, 3)
        T = _rand_map(rng, src, tgt)
        res = operator_norm(T)
        # Oracle: brute-force max over enumerated source-ball vertices.
        want = max(norm_eval(tgt, T(v)) for v in ball_extreme_points(src))
        assert res.value == want


def test_opnorm_l2_l2_certified():
    T = linear_map(lp_space(2, dim=2), lp_space(2, dim=2),
                   [[3, 0], [0, 4]])
    res = operator_norm(T)
    assert res.certificate_kind == SAMPLED_BOUND
    assert res.upper - res.lower < Q(1, 10**9)
    assert res.lower <= 4 <= res.upper


def test_adjoint_roundtrip_and_norm():
    rng = random.Random(29)
    S = lp_space(1, dim=2)
    T = linear_map(S, S, [[1, 2], [3, 4]])
    A = adjoint(T)
    assert A.source.spec.p == "inf"
    assert adjoint(A).matrix == T.matrix
    for _ in range(6):
        src = _rand_polytope_space(rng, 2)
        tgt = _rand_polytope_space(rng, 3)
        U = _rand_map(rng, src, tgt)
        assert operator_norm(adjoint(U)).value == operator_norm(U).value


def test_adjoint_identity_l1_linf():
    S1 = lp_space(1, dim=2)
    T = linear_map(S1, S1, linalg.identity(2))
    A = adjoint(T)
    assert A.matrix == linalg.identity(2)
    assert A.source.spec.p == "inf" and A.target.spec.p == "inf"


def test_min_norm_preimage_drop():
    T = linear_map(lp_space(1, dim=2), lp_space(1, dim=1), [[1, 0]])
    u, val = min_norm_preimage(T, (ONE,))
    assert u == (ONE, ZERO)
    assert val == 1


def test_min_norm_preimage_split():
    T = linear_map(lp_space(1, dim=2), lp_space(1, dim=1), [[1, 1]])
    u, val = min_norm_preimage(T, (Q(2),))
    assert val == 2
    assert u[0] + u[1] == 2


def test_min_norm_preimage_out_of_range():
    T = linear_map(lp_space(1, dim=2), lp_space(1, dim=2),
                   [[1, 0], [0, 0]])
    with pytest.raises(RangeError):
        min_norm_preimage(T, (ZERO, ONE))


def test_min_norm_preimage_l2_exact():
    T = linear_map(lp_space(2, dim=2), lp_space(2, dim=1), [[1, 1]])
    u, _ = min_norm_preimage(T, (ONE,))
    assert u == (Q(1, 2), Q(1, 2))


def test_min_norm_preimage_of_the_zero_map_from_weighted_l2():
    src = lp_space(2, weights=(Q(2), Q(1, 3), ONE))
    for tgt in (lp_space(1, dim=2), lp_space(2, dim=1)):
        T = linear_map(src, tgt, [[0, 0, 0]] * tgt.dim)
        assert min_norm_preimage(T, (ZERO,) * tgt.dim) == ((ZERO,) * 3, 0)


def test_min_norm_preimage_l2_on_rank_deficient_maps():
    """T u = v, and u is least-norm: W^2 u lies in the row space of T (the
    Lagrange condition of min ||W u||^2 s.t. T u = v)."""
    rng = random.Random(14)
    deficient = 0
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        weights = [Q(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
        src = lp_space(2, weights=weights)
        rows = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.5:        # a dependent row
            rows.append([2 * a - b for a, b in zip(rows[0], rows[-1])])
        T = linear_map(src, lp_space(1, dim=len(rows)), rows)
        deficient += linalg.rank(T.matrix) < len(rows)
        x = random_rational_vector(rng, n)
        v = T(x)
        u, val = min_norm_preimage(T, v)
        assert T(u) == v
        w2u = tuple(w * w * c for w, c in zip(weights, u))
        assert linalg.rank(T.matrix + (w2u,)) == linalg.rank(T.matrix)
        assert norm_eval_sq(src, u) <= norm_eval_sq(src, x)
        assert val == norm_eval(src, u)
    assert deficient >= 20


def test_min_norm_preimage_permutation_invariant():
    rng = random.Random(41)
    for _ in range(5):
        src = _rand_polytope_space(rng, 3)
        T = _rand_map(rng, src, lp_space(1, dim=2))
        if linalg.rank(T.matrix) < 2:
            continue
        v = T((ONE, Q(1, 2), Q(-1, 3)))
        _, val = min_norm_preimage(T, v)
        perm = [2, 0, 1]
        src_p = vpoly_space([tuple(x[p] for p in perm)
                             for x in src.spec.vertices]) \
            if src.spec.kind == "vpoly" else \
            hpoly_space([tuple(f[p] for p in perm)
                         for f in src.spec.functionals])
        Tp = linear_map(src_p, T.target,
                        [[row[p] for p in perm] for row in T.matrix])
        _, val_p = min_norm_preimage(Tp, v)
        assert val == val_p


def test_quotient_norm_lower_bound_and_drop():
    T = linear_map(lp_space("inf", dim=3), lp_space("inf", dim=2),
                   [[1, 0, 0], [0, 1, 0]])
    assert quotient_norm(T, (ONE, ONE)) == 1
    assert is_quotient_map(T).verdict


def test_quotient_map_drop_l1():
    T = linear_map(lp_space(1, dim=3), lp_space(1, dim=2),
                   [[1, 0, 0], [0, 1, 0]])
    assert is_quotient_map(T).verdict


def test_quotient_map_fail_with_witness():
    # 1-Lipschitz onto (R, |t|/2) but min preimage of the ball vertex 2
    # has norm 2 > 1.
    tgt = lp_space(1, weights=[Q(1, 2)])
    T = linear_map(lp_space(1, dim=2), tgt, [[1, 0]])
    v = is_quotient_map(T)
    assert not v.verdict
    assert v.witness == (Q(2),)
    _, val = min_norm_preimage(T, v.witness)
    assert val == 2


def test_quotient_map_isometric_iso_passes():
    S = lp_space(1, dim=2)
    T = linear_map(S, S, [[0, 1], [1, 0]])
    assert is_quotient_map(T).verdict


def test_isometric_embedding_padding():
    T = linear_map(lp_space("inf", dim=2), lp_space("inf", dim=3),
                   [[1, 0], [0, 1], [0, 0]])
    assert is_isometric_embedding(T).verdict


def test_isometric_embedding_fail():
    T = linear_map(lp_space(1, dim=1), lp_space(1, dim=2), [[1], [1]])
    v = is_isometric_embedding(T)
    assert not v.verdict


def test_isometric_embedding_l2_rotation():
    T = linear_map(lp_space(2, dim=2), lp_space(2, dim=2),
                   [[Q(3, 5), Q(-4, 5)], [Q(4, 5), Q(3, 5)]])
    assert is_isometric_embedding(T).verdict
    assert is_one_lipschitz(T) is True


def test_adjoint_duality_theorem_random():
    # Isometric embedding <-> adjoint is a quotient map (both directions).
    rng = random.Random(53)
    for _ in range(6):
        # Padding into a random polytope norm that restricts to the source.
        d = rng.choice([2, 3])
        src = _rand_polytope_space(rng, d)
        pad = linear_map(src, _pad_space(src, 1), _pad_matrix(d, 1))
        assert is_isometric_embedding(pad).verdict
        assert is_quotient_map(adjoint(pad)).verdict
    for _ in range(6):
        d = rng.choice([2, 3])
        src = _rand_polytope_space(rng, d + 1)
        rows = [[Q(rng.randint(-2, 2)) for _ in range(d + 1)]
                for _ in range(d)]
        if linalg.rank(rows) < d:
            continue
        image = [linalg.mat_vec(linalg.mat(rows), v)
                 for v in ball_extreme_points(src)]
        tgt = vpoly_space(image)
        T = linear_map(src, tgt, rows)
        assert is_quotient_map(T).verdict
        assert is_isometric_embedding(adjoint(T)).verdict


def _pad_space(src, extra):
    # Extend a polytope norm to dim+extra: unit ball = conv(B x [-1,1]^e).
    d = src.dim
    if src.spec.kind == "vpoly":
        verts = [tuple(v) + s for v in src.spec.vertices
                 for s in _signs(extra)]
        return vpoly_space(verts)
    funcs = [tuple(f) + (ZERO,) * extra for f in src.spec.functionals]
    funcs += [tuple(ZERO for _ in range(d + k)) + (ONE,)
              + (ZERO,) * (extra - k - 1) for k in range(extra)]
    return hpoly_space(funcs)


def _signs(e):
    import itertools
    return [s for s in itertools.product((ONE, -ONE), repeat=e)]


def _pad_matrix(d, extra):
    return [[ONE if i == j else ZERO for j in range(d)]
            for i in range(d + extra)]


def _image_maps(rng, src):
    """Two 1-Lipschitz maps of src onto a V-polytope of one dimension less:
    onto the image of its ball (a quotient map), and onto that image plus
    one vertex outside it (not a quotient map)."""
    d = src.dim - 1
    while True:
        rows = [[Q(rng.randint(-2, 2)) for _ in range(d + 1)]
                for _ in range(d)]
        if linalg.rank(rows) == d:
            break
    image = [linalg.mat_vec(linalg.mat(rows), v)
             for v in ball_extreme_points(src)]
    extra = (ZERO,) * d
    while not any(extra):
        extra = random_rational_vector(rng, d)
    while hull_contains(image, extra):
        extra = linalg.vec_scale(Q(3, 2), extra)
    return (linear_map(src, vpoly_space(image), rows),
            linear_map(src, vpoly_space(image + [extra]), rows))


def _rand_enumerable_space(rng, dim):
    """V-polytope or weighted l1: extreme points listed at any dim cap."""
    if rng.random() < 0.5:
        return vpoly_space(random_spanning_vectors(rng, dim, dim + 2))
    return lp_space(1, weights=[Q(rng.randint(1, 4), rng.randint(1, 3))
                                for _ in range(dim)])


def test_uncovered_target_vertex_fails_both_verdicts():
    rng = random.Random(83)
    for trial in range(8):
        d = rng.choice([2, 3])
        src = (_rand_polytope_space(rng, d + 1) if trial % 2
               else _rand_enumerable_space(rng, d + 1))
        _, T = _image_maps(rng, src)
        assert operator_norm(T).value <= 1
        qv = is_quotient_map(T)
        assert not qv.verdict
        assert qv.reason == "min preimage norm != target norm"
        assert min_norm_preimage(T, qv.witness)[1] != 1
        # Its adjoint is then not an isometric embedding: the witness is a
        # dual functional whose extension needs norm > 1.
        A = adjoint(T)
        ev = is_isometric_embedding(A)
        assert not ev.verdict
        assert ev.reason == "dual extension needs norm > 1"
        assert min_norm_preimage(adjoint(A), ev.witness)[1] > 1


def _kind_space(rng, kind, dim):
    """A random space of one norm kind: weighted "1", "inf" or "2", or an
    "hpoly" or "vpoly" polytope."""
    if kind in ("1", "inf", "2"):
        return lp_space(kind, weights=[Q(rng.randint(1, 6), rng.randint(1, 4))
                                       for _ in range(dim)])
    vecs = random_spanning_vectors(rng, dim, dim + rng.randint(1, 3))
    return hpoly_space(vecs) if kind == "hpoly" else vpoly_space(vecs)


def _outcome(f, T):
    """f(T), or the message of the NormSpecError it raises."""
    try:
        return f(T)
    except space.NormSpecError as e:
        return str(e)


def test_integer_images_match_the_fraction_reference(monkeypatch):
    # Operator norms and preimage gauges read the integer ball record and
    # the integer images of its points.  Every result (value, bracket,
    # witness, exact square) and every quotient and isometry verdict with
    # its witness equals that of the Fraction path of tests/oracles.py, on
    # maps between every norm kind: zero maps, coordinate maps, dense maps,
    # V-polytope targets above _FACET_DIM, and quotient maps onto the image
    # ball, scaled to fail or pass loosely.
    rng = random.Random(2501)
    kinds = ("1", "inf", "2", "hpoly", "vpoly")
    maps = []
    for k in range(100):
        src = _kind_space(rng, kinds[k % 5], rng.randint(1, 4))
        tgt = _kind_space(rng, kinds[k // 5 % 5], rng.randint(1, 4))
        if k % 4 == 0:
            rows = [[0] * src.dim for _ in range(tgt.dim)]
        elif k % 4 == 1:
            cols = rng.sample(range(max(src.dim, tgt.dim)), tgt.dim)
            rows = [[int(j == c) for j in range(src.dim)] for c in cols]
        else:
            rows = [[Q(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(src.dim)] for _ in range(tgt.dim)]
        maps.append(linear_map(src, tgt, rows))
    for dim in (5, 5, 6):
        maps.append(_rand_map(rng, _kind_space(rng, "hpoly", 3),
                              _kind_space(rng, "vpoly", dim)))
    for k in range(12):
        src = _kind_space(rng, kinds[k % 5], rng.choice([3, 4]))
        if not is_l2(src):
            T = _image_maps(rng, src)[0]
            for scale in (ONE, Q(1, 2), Q(2)):
                maps.append(linear_map(src, vpoly_space(
                    [linalg.vec_scale(scale, v)
                     for v in T.target.spec.vertices]), T.matrix))
    assert sum(T.coords is not None for T in maps) >= 25

    def results(T):
        return tuple(_outcome(f, T) for f in (
            operator_norm, is_quotient_map, is_isometric_embedding,
            lambda T: is_isometric_embedding(adjoint(T))))

    got = [results(T) for T in maps]
    for T in maps:
        if not is_l2(T.source):
            assert linmap._opnorm_over_vertices(T) == \
                opnorm_over_vertices_reference(T, ball_extreme_points(T.source))
    monkeypatch.setattr(linmap, "_opnorm_over_vertices", lambda T: (
        opnorm_over_vertices_reference(T, ball_extreme_points(T.source))))
    monkeypatch.setattr(linmap, "_min_preimage_norm_sq",
                        min_preimage_norm_sq_reference)
    assert [results(T) for T in maps] == got
    # The covering checks ran: quotient verdicts both ways, with witnesses.
    quotients = [r[1] for r in got if isinstance(r[1], MapVerdict)]
    assert sum(v.verdict for v in quotients) >= 5
    assert sum(v.reason == "min preimage norm != target norm"
               for v in quotients) >= 5


def test_cover_and_lp_routes_agree(monkeypatch):
    rng = random.Random(89)
    maps = []
    for _ in range(6):
        d = rng.choice([2, 3])
        maps.extend(_image_maps(rng, _rand_enumerable_space(rng, d + 1)))

    def verdicts():
        return [(is_quotient_map(T), is_isometric_embedding(adjoint(T)))
                for T in maps]

    solves = count_lp_solves(monkeypatch)
    facet_route = verdicts()
    assert len(solves) == 0
    lower_enumeration_caps(monkeypatch, 1)
    assert verdicts() == facet_route
    assert len(solves) > 0
    assert [q.verdict for q, _ in facet_route] == [True, False] * 6
    assert [e.verdict for _, e in facet_route] == [True, False] * 6


def _maps_round(rng):
    """Values and verdicts of a `maps`-shaped sequence: H/V builds at
    d = 2-4 with bipolar norms, operator norms of V -> H and H -> H maps
    and of their adjoints, a pad embedding and an image-ball quotient."""
    out = []
    for d in (2, 3, 4):
        vecs = random_spanning_vectors(rng, d, d + 2)
        xs = [random_rational_vector(rng, d) for _ in range(3)]
        for X in (hpoly_space(vecs), vpoly_space(vecs)):
            XX = space.dual_space(space.dual_space(X))
            out.append([(norm_eval(X, x), norm_eval(XX, x)) for x in xs])
    for src, tgt in ((vpoly_space, hpoly_space), (hpoly_space, hpoly_space)):
        T = _rand_map(rng, src(random_spanning_vectors(rng, 3, 5)),
                      tgt(random_spanning_vectors(rng, 2, 3)))
        for M in (T, adjoint(T)):
            res = operator_norm(M)
            _assert_witness_attains(M, res)
            out.append((res.value, res.certificate_kind))
    src = hpoly_space(random_spanning_vectors(rng, 3, 5))
    pad = linear_map(src, hpoly_space(
        [f + (ZERO,) for f in src.spec.functionals] + [(ZERO,) * 3 + (ONE,)]),
        _pad_matrix(3, 1))
    out.append((is_isometric_embedding(pad), is_quotient_map(adjoint(pad))))
    src = vpoly_space(random_spanning_vectors(rng, 4, 6))
    rows = [[1, 0, 1, 0], [0, 1, -1, 0], [1, 1, 0, 2]]
    image = [linalg.mat_vec(linalg.mat(rows), v)
             for v in ball_extreme_points(src)]
    T = linear_map(src, vpoly_space(image), rows)
    out.append((is_quotient_map(T), is_isometric_embedding(adjoint(T))))
    return out


def test_a_maps_round_solves_no_lp(monkeypatch):
    # Up to dimension 4 every build, norm, operator norm (witness included)
    # and verdict is read off cached vertex enumerations; with the cap at 1
    # the same values and verdicts come from LPs.
    solves = count_lp_solves(monkeypatch)
    enumerated = _maps_round(random.Random(113))
    assert len(solves) == 0
    assert enumerated[-2:] == [(linmap.MapVerdict(True),) * 2] * 2
    lower_enumeration_caps(monkeypatch, 1)
    assert _maps_round(random.Random(113)) == enumerated
    assert len(solves) > 0


def test_opnorm_submultiplicative_random():
    rng = random.Random(61)
    for _ in range(6):
        a = _rand_polytope_space(rng, 2)
        b = _rand_polytope_space(rng, 3)
        c = _rand_polytope_space(rng, 2)
        T = _rand_map(rng, a, b)
        S = _rand_map(rng, b, c)
        assert operator_norm(compose(S, T)).value <= \
            operator_norm(S).value * operator_norm(T).value


def test_quotient_norm_is_a_norm():
    rng = random.Random(71)
    T = linear_map(lp_space(1, dim=3), lp_space(1, dim=2),
                   [[1, 1, 0], [0, 1, 1]])
    for _ in range(6):
        v = tuple(Q(rng.randint(-3, 3)) for _ in range(2))
        w = tuple(Q(rng.randint(-3, 3)) for _ in range(2))
        t = Q(rng.randint(-4, 4), rng.randint(1, 3))
        qv = quotient_norm(T, v)
        assert quotient_norm(T, linalg.vec_scale(t, v)) == abs(t) * qv
        assert quotient_norm(T, linalg.vec_add(v, w)) <= \
            qv + quotient_norm(T, w)


def test_map_json_roundtrip():
    S = lp_space(1, dim=2, label="a")
    W = lp_space("inf", dim=2, label="b")
    T = linear_map(S, W, [[1, 2], [Q(1, 3), 4]])
    blob = map_to_json(T)
    T2 = map_from_json(blob, {"a": S, "b": W})
    assert T2 == T


def test_listed_non_extreme_target_point_is_covered(monkeypatch):
    # A V-polytope read as given may list a point inside its ball: the
    # identity from l1 onto conv(+-e1, +-e2, +-(1/4, 1/4)) is still a
    # quotient map (the ball is the l1 ball).
    T = LinearMap(lp_space(1, 2),
                  NormedSpace(2, VPolytope(((ONE, ZERO), (ZERO, ONE),
                                            (Q(1, 4), Q(1, 4))))),
                  linalg.identity(2))
    # The l2 route: l2^1 onto the interval listing the inner point 1/2.
    L = LinearMap(lp_space(2, 1), NormedSpace(1, VPolytope(((ONE,),
                                                            (Q(1, 2),)))),
                  ((ONE,),))
    # A point outside the image of the ball still fails, with its reason.
    U = LinearMap(T.source, NormedSpace(2, VPolytope(((ONE, ZERO), (ZERO, ONE),
                                                      (ONE, ONE)))), T.matrix)

    def check_outside_point():
        qv = is_quotient_map(U)
        assert not qv.verdict and qv.witness == (ONE, ONE)
        assert qv.reason == "min preimage norm != target norm"

    solves = count_lp_solves(monkeypatch)
    assert is_quotient_map(T) == linmap.MapVerdict(True)
    assert len(solves) == 0
    assert is_quotient_map(L) == linmap.MapVerdict(True)
    check_outside_point()
    lower_enumeration_caps(monkeypatch, 1)
    solves.clear()
    assert is_quotient_map(T).verdict
    assert len(solves) > 0
    check_outside_point()


def _assert_witness_in_bracket(T, res):
    w = res.witness
    ratio = norm_eval_sq(T.target, T(w)) / norm_eval_sq(T.source, w)
    assert res.lower ** 2 <= ratio <= res.upper ** 2


def _assert_witness_attains(T, res):
    """The witness is a source vector w with ||T w|| = ||T|| ||w||."""
    w = res.witness
    assert len(w) == T.source.dim
    if res.value_sq is None:                   # l2 -> l2: a bracket
        _assert_witness_in_bracket(T, res)
    else:
        assert norm_eval_sq(T.target, T(w)) == \
            res.value_sq * norm_eval_sq(T.source, w)


def test_opnorm_witness_is_an_attaining_source_vector(monkeypatch):
    # Sources of dimension 3 into targets of dimension 2, through the route
    # the ball counts pick: primal into l2, dual into the polytopal targets
    # and from every l2 source (l2 -> l2 through its bracket).
    rng = random.Random(103)
    weights = [Q(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(3)]
    targets = [lp_space(1, dim=2), lp_space("inf", weights=[2, Q(1, 3)]),
               lp_space(2, weights=[1, 3]), _rand_polytope_space(rng, 2),
               _rand_polytope_space(rng, 2)]
    hpoly = hpoly_space(random_spanning_vectors(rng, 3, 5))
    sources = [lp_space(1, weights=weights), lp_space("inf", weights=weights),
               hpoly, vpoly_space(random_spanning_vectors(rng, 3, 5)),
               lp_space(2, weights=weights)]
    for src in sources:
        for tgt in targets:
            T = _rand_map(rng, src, tgt)
            _assert_witness_attains(T, operator_norm(T))
    # Above the cap an H-polytope source takes the dual route as well.
    lower_enumeration_caps(monkeypatch, 2)
    with pytest.raises(linmap.NormSpecError):
        ball_extreme_points(hpoly)
    for tgt in targets[:2] + targets[3:]:
        T = _rand_map(rng, hpoly, tgt)
        _assert_witness_attains(T, operator_norm(T))
    # The zero map attains its norm 0 everywhere and names no witness.
    res = operator_norm(linear_map(hpoly, targets[0], [[0, 0, 0]] * 2))
    assert res.value == 0 and res.witness is None


def test_opnorm_lists_the_smaller_ball(monkeypatch):
    # An H-polytope source of dimension 6 into l1^2: the target dual ball
    # (the linf^2 cube) lists 4 points, so it is the one ball enumerated
    # and the source ball never is.
    rng = random.Random(107)
    enumerated = []
    integer_vertices = space._integer_vertices
    monkeypatch.setattr(space, "_integer_vertices", lambda h, d: (
        enumerated.append(d), integer_vertices(h, d))[1])
    space._cached_ball.cache_clear()
    src = hpoly_space(random_spanning_vectors(rng, 6, 8))
    T = _rand_map(rng, src, lp_space(1, dim=2))
    _assert_witness_attains(T, operator_norm(T))
    assert enumerated == [2]


def test_covering_check_reads_image_facets_up_to_the_cap(monkeypatch):
    # The linf^6 -> linf^5 drop: the image ball (the linf^5 cube) is read
    # off its facets, with no LP.
    drop = [[1 if j == i else 0 for j in range(6)] for i in range(5)]
    T = linear_map(lp_space("inf", dim=6), lp_space("inf", dim=5), drop)
    solves = count_lp_solves(monkeypatch)
    assert is_quotient_map(T) == linmap.MapVerdict(True)
    assert solves == []
    # The one-off image ball stays out of the shared vertex cache: only the
    # source and target balls of an H^3 -> H^2 map enter it (a small map,
    # so the check gets to the covering step, and fails there).
    rng = random.Random(109)
    small = Q(1, 100)
    U = linear_map(hpoly_space(random_spanning_vectors(rng, 3, 4)),
                   hpoly_space(random_spanning_vectors(rng, 2, 3)),
                   [[small, 0, 0], [0, small, 0]])
    space._cached_ball.cache_clear()
    assert is_quotient_map(U).reason == "min preimage norm != target norm"
    assert space._cached_ball.cache_info().currsize == 2


def test_l2_bracket_when_start_vector_misses_top_singular_vector():
    # B has orthogonal rows 2(-q, p) and (p, q), so its norm is 2|(p, q)|;
    # (p, q) is a right singular vector for the smaller value |(p, q)|, where
    # a power iteration started at (p, q) stays.
    import numpy as np
    p, q = (from_float(float(v))
            for v in np.random.default_rng(0).standard_normal(2))
    E = lp_space(2, 2)
    T = linear_map(E, E, [[-2 * q, 2 * p], [p, q]])
    res = operator_norm(T)
    assert res.certificate_kind == SAMPLED_BOUND
    norm_sq = 4 * (p * p + q * q)
    assert res.lower ** 2 <= norm_sq <= res.upper ** 2
    assert res.upper - res.lower < Q(1, 10**10)
    _assert_witness_in_bracket(T, res)
    # Between weighted spaces the witness is a source vector, not one in
    # the unweighted coordinates of the Gram matrix.
    W = linear_map(lp_space(2, weights=[1, 3]),
                   lp_space(2, weights=[2, Q(1, 2)]), [[1, 2], [3, -1]])
    res = operator_norm(W)
    assert res.upper - res.lower < Q(1, 10**10)
    _assert_witness_in_bracket(W, res)


def test_l2_bracket_bisects_after_a_poor_eigenvector(monkeypatch):
    # eigh reports the bottom eigenvector of S = diag(4, 1) as the top one,
    # so the Rayleigh quotient gives lo = 1, not 2, and the exact check of
    # lo + gap/2 fails: the bracket comes from bisecting on that check.
    import numpy as np
    eigh = np.linalg.eigh

    def poor_eigh(a):
        w, v = eigh(a)
        return w[::-1], v[:, ::-1]
    monkeypatch.setattr(np.linalg, "eigh", poor_eigh)
    T = linear_map(lp_space(2, 2), lp_space(2, 2), [[2, 0], [0, 1]])
    S = linmap._weighted_gram(T)
    res = linmap._opnorm_l2_l2(T)
    assert linmap._gram_at_most(S, res.upper * res.upper)
    assert not linmap._gram_at_most(S, res.lower * res.lower)
    assert res.upper - res.lower < linmap._L2_GAP
    assert res.lower < 2 <= res.upper


def test_polytopal_source_into_l2_embedding():
    # l1^1 -> l2^2 by a column of l2 norm 1 is an isometric embedding; by a
    # shorter column it is 1-Lipschitz but not isometric.  Each adjoint
    # (l2^2 -> linf^1) is a quotient map exactly when the map embeds.
    for column, embeds in [((Q(3, 5), Q(4, 5)), True),
                           ((Q(3, 5), Q(3, 5)), False)]:
        T = linear_map(lp_space(1, 1), lp_space(2, 2), [[c] for c in column])
        ev = is_isometric_embedding(T)
        assert ev.verdict is embeds
        assert ev.reason == ("" if embeds else "dual extension needs norm > 1")
        assert is_quotient_map(adjoint(T)).verdict is embeds


def test_min_norm_preimage_l1_equals_its_vpoly():
    rng = random.Random(97)
    for _ in range(6):
        n, m = rng.choice([(2, 1), (3, 2), (4, 2)])
        w = [Q(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n)]
        src = lp_space(1, weights=w)
        as_vpoly = vpoly_space([[ONE / w[i] if j == i else ZERO
                                 for j in range(n)] for i in range(n)])
        while True:
            rows = [[Q(rng.randint(-3, 3)) for _ in range(n)]
                    for _ in range(m)]
            if linalg.rank(rows) == m:
                break
        v = random_rational_vector(rng, m)
        u, val = min_norm_preimage(linear_map(src, lp_space(1, m), rows), v)
        _, val_v = min_norm_preimage(
            linear_map(as_vpoly, lp_space(1, m), rows), v)
        assert val == val_v == norm_eval(src, u)
        assert linalg.mat_vec(linalg.mat(rows), u) == v


def _side(draw, dim):
    """A polytopal space of this dimension: weighted l1 or linf, or a
    random H- or V-polytope."""
    kind = draw(st.sampled_from(["1", "inf", "poly"]))
    if kind == "poly":
        return _rand_polytope_space(random.Random(draw(st.integers(0, 999))),
                                    dim)
    return lp_space(kind, weights=[Q(w, 2) for w in draw(
        st.lists(st.integers(1, 4), min_size=dim, max_size=dim))])


def _coords(draw, n, m):
    """A random partial permutation from R^n to R^m: per target
    coordinate, a distinct source index or None."""
    perm = draw(st.permutations(range(max(n, m))))
    return tuple(c if c < n and draw(st.booleans()) else None
                 for c in perm[:m])


def _dense(coords, n):
    return tuple(tuple(ONE if j == c else ZERO for j in range(n))
                 for c in coords)


@st.composite
def _coordinate_maps(draw):
    """A drop, a padding or a partial permutation between polytopal spaces,
    a coordinate map after it, and a source vector."""
    shape = draw(st.sampled_from(["drop", "pad", "partial"]))
    n = draw(st.integers(2 if shape == "drop" else 1, 4))
    if shape == "drop":
        coords = tuple(range(n - 1))
    elif shape == "pad":
        coords = tuple(range(n)) + (None,)
    else:
        coords = _coords(draw, n, draw(st.integers(1, 4)))
    src, tgt = _side(draw, n), _side(draw, len(coords))
    k = draw(st.integers(1, 4))
    after = _coords(draw, len(coords), k)
    x = tuple(Q(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
              for _ in range(n))
    return src, tgt, coords, lp_space(1, k), after, x


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_coordinate_maps())
def test_coordinate_maps_agree_with_their_matrices(case):
    src, tgt, coords, third, after, x = case
    dense = _dense(coords, src.dim)
    C, D = LinearMap(src, tgt, coords=coords), LinearMap(src, tgt, dense)
    assert C.matrix == dense and D.coords is None
    assert C(x) == linalg.mat_vec(dense, x)
    G = tuple((v, v + 1) for v in x)
    assert C.mat_mul(G) == linalg.mat_mul(dense, G)
    A = adjoint(C)
    assert A.coords is not None and A.matrix == adjoint(D).matrix
    y = tuple(Q(i - 1, 2) for i in range(tgt.dim))
    assert A(y) == adjoint(D)(y)
    S = LinearMap(tgt, third, coords=after)
    SC = compose(S, C)
    assert SC.coords is not None
    assert SC.matrix == linalg.mat_mul(_dense(after, tgt.dim), dense)
    assert compose(S, D).matrix == SC.matrix
    assert operator_norm(C) == operator_norm(D)
    assert is_quotient_map(C) == is_quotient_map(D)
    assert is_isometric_embedding(C) == is_isometric_embedding(D)
    # Rows read back (from JSON, say) take the coordinate form again.
    assert linear_map(src, tgt, dense).coords == coords
    assert map_to_json(C) == map_to_json(D)


def test_coordinate_maps_check_their_input():
    src, tgt = lp_space(1, 3), lp_space(1, 2)
    with pytest.raises(ValueError, match="shape"):
        LinearMap(src, tgt, coords=(1, 1))
    with pytest.raises(ValueError, match="shape"):
        LinearMap(src, tgt, coords=(0, 3))
    with pytest.raises(ValueError, match="length"):
        LinearMap(src, tgt, coords=(0, None))((ONE, ONE))
    assert linear_map(src, tgt, [[1, 0, 0], [1, 0, 0]]).coords is None
    assert linear_map(src, tgt, [[2, 0, 0], [0, 1, 0]]).coords is None


def test_map_verdicts_refuse_bad_input():
    src, tgt = lp_space(1, dim=2), lp_space("inf", dim=2)
    T = linear_map(src, tgt, [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="target vector has wrong dim"):
        min_norm_preimage(T, (ONE,))
    with pytest.raises(ValueError, match="requires a surjective map"):
        quotient_norm(linear_map(src, tgt, [[1, 1], [1, 1]]), (ONE, ONE))
    with pytest.raises(space.NormSpecError, match="polytopal target"):
        is_quotient_map(linear_map(src, lp_space(2, dim=2), [[1, 0],
                                                              [0, 1]]))
    with pytest.raises(space.NormSpecError, match="polytopal source"):
        is_isometric_embedding(linear_map(lp_space(2, dim=2), tgt,
                                          [[1, 0], [0, 1]]))

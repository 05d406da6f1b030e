import functools
import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from banachlim import determining, linalg
from banachlim.scalar import Q, ZERO, ONE
from banachlim.space import hpoly_space, lp_space, norm_eval, vpoly_space
from banachlim.linmap import linear_map, operator_norm
from banachlim.systems import (InverseSystem, SubspaceGenerator,
                               compatible_from_tail, generator_from_tail,
                               invlim_convergence, l1_drop_system,
                               l2_drop_system, linf_drop_system, project,
                               random_quotient_system)
from banachlim.determining import (CertifyConfig, DeterminingQuery,
                                   RhoSchedule, SearchConfig, anp_diagnostic,
                                   dp_diagnostic, eps_determining_certify,
                                   eps_determining_search,
                                   equivalence_witness, gfda_check,
                                   parameter_space, prefix_obstruction_query,
                                   rescaled_image_presentation, verify_pair)

from oracles import (count_lp_solves, float_margin_fn, lower_enumeration_caps,
                     min_norm_on_cube_sphere, random_spanning_vectors,
                     sequential_search_reference, verify_pair_reference)

HALF = Q(1, 2)


def _truncation_query(M, rho, eps, **kw):
    """Two-parameter prefix slice of the l1 coordinate-drop system."""
    sys_ = l1_drop_system(M)
    gen = generator_from_tail(
        sys_, [[ONE, ZERO], [ZERO, ONE]] + [[ZERO, ZERO]] * (M - 2))
    return DeterminingQuery(sys_, gen, RhoSchedule(rho), eps, M, **kw)


def _d1_query(**kw):
    sys_ = l1_drop_system(4)
    gen = generator_from_tail(sys_, [[ONE], [ZERO], [ZERO], [ZERO]])
    return DeterminingQuery(sys_, gen, RhoSchedule((HALF, HALF)), Q(3, 4), 4,
                            **kw)


# ---------------------------------------------------------------------------
# Query and schedule validation

def test_rho_schedule_validation():
    RhoSchedule((ONE, HALF, HALF))
    with pytest.raises(ValueError):
        RhoSchedule(())
    with pytest.raises(ValueError):
        RhoSchedule((HALF, ONE))          # increasing
    with pytest.raises(ValueError):
        RhoSchedule((HALF, ZERO))         # not positive
    with pytest.raises(ValueError):
        RhoSchedule((Q(3, 2),))           # above one


def test_query_validation():
    sys_ = l1_drop_system(4)
    gen = generator_from_tail(sys_, [[ONE], [ZERO], [ZERO], [ZERO]])
    other = l1_drop_system(4)
    with pytest.raises(ValueError):
        DeterminingQuery(other, gen, RhoSchedule((HALF,)), HALF, 4)
    with pytest.raises(ValueError):
        DeterminingQuery(sys_, gen, RhoSchedule((HALF,) * 5), HALF, 4)
    with pytest.raises(ValueError):
        DeterminingQuery(sys_, gen, RhoSchedule((HALF,)), Q(5, 2), 4)


@pytest.mark.parametrize("field, value", [
    ("starts", -3), ("starts", 2.5), ("starts", True), ("iters", -1),
    ("iters", 2.5), ("iters", "300"), ("max_den", 0), ("max_den", 1e6)])
def test_search_config_validation(field, value):
    SearchConfig(starts=0, iters=0, max_den=1)
    with pytest.raises(ValueError):
        SearchConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("delta", 0), ("delta", Q(-1)), ("delta", True), ("delta", "x"),
    ("refine_rounds", -3), ("refine_rounds", 1.0), ("budget", -5),
    ("budget", False)])
def test_certify_config_validation(field, value):
    assert CertifyConfig(delta="1/8", refine_rounds=0, budget=0).delta == \
        Q(1, 8)
    with pytest.raises(TypeError):
        CertifyConfig(dim_cap=4)
    with pytest.raises(ValueError):
        CertifyConfig(**{field: value})


def test_certify_refuses_more_than_four_parameters():
    sys_ = l1_drop_system(5)
    q = DeterminingQuery(sys_, generator_from_tail(sys_, linalg.identity(5)),
                         RhoSchedule((HALF,)), HALF, 5)
    with pytest.raises(ValueError, match="parameter dimension 5 above"):
        eps_determining_certify(q)


# ---------------------------------------------------------------------------
# Exact pair verification

def test_verify_pair_forced_obstruction():
    # The two prefix generators agree on the first N coordinates but
    # differ by a full unit at the top stage: a canonical violating pair.
    q = prefix_obstruction_query(3)
    cx = verify_pair(q, (ONE, ZERO), (ZERO, ONE))
    assert cx is not None
    assert cx.violation == 1
    assert cx.proximity_slack == Q(1, 3)
    assert all(s == HALF for s in cx.tail_slacks[0])
    assert all(s == HALF for s in cx.tail_slacks[1])


def test_verify_pair_scale_invariance():
    q = prefix_obstruction_query(3)
    cx = verify_pair(q, (Q(7), ZERO), (ZERO, Q(7)))
    assert cx is not None and cx.violation == 1


def test_verify_pair_rejects_separated_only():
    # Same direction twice: separation fails (zero difference).
    q = prefix_obstruction_query(3)
    assert verify_pair(q, (ONE, ZERO), (ONE, ZERO)) is None


def test_parameter_vectors_of_the_wrong_length_are_rejected():
    # A matrix product would silently drop the extra entry (or read a
    # short vector as a shorter slice) and return a Counterexample.
    q = prefix_obstruction_query(4)
    for a, b in (((1, 0, 7), (0, 1, -3)), ((1, 0), (1,)), ((), (0, 1))):
        with pytest.raises(ValueError, match="param_dim"):
            verify_pair(q, a, b)
    for a in ((1, 0, 7), (1,), ()):
        with pytest.raises(ValueError, match="param_dim"):
            q.gen.member(a)
    assert q.gen.member((1, 0)).stages == tuple(
        linalg.mat_vec(m, (ONE, ZERO)) for m in q.gen.matrices)


def test_verify_pair_tie_counts_as_failure():
    # With rho_i = 1 the tail constraint ||v|| - ||pi_i v|| < ||v|| fails
    # exactly when pi_i v = 0; the d=1 slice hits the tie at stage > 1.
    sys_ = l1_drop_system(3)
    gen = generator_from_tail(sys_, [[ZERO], [ONE], [ZERO]])
    q = DeterminingQuery(sys_, gen, RhoSchedule((ONE,)), HALF, 3)
    assert verify_pair(q, (ONE,), (-ONE,)) is None


def test_verify_pair_on_l2_stages():
    # Prefix slice of the l2 drop system: v = (1, 1, 0, 0) and
    # v' = (1, 1, 1, 1) agree through stage N = 2 and are sqrt(2) apart at
    # stage 4, 1/sqrt(2) of the larger norm 2.  Every l2 norm is a bracket,
    # so the reported violation is a lower bound of that ratio.
    sys_ = l2_drop_system(4)
    gen = generator_from_tail(sys_, [[ONE, ONE], [ONE, ONE], [ZERO, ONE],
                                     [ZERO, ONE]])
    rho = RhoSchedule((Q(3, 4), Q(3, 4)))
    q = DeterminingQuery(sys_, gen, rho, HALF, 4)
    cx = verify_pair(q, (ONE, ZERO), (ZERO, ONE))
    assert cx is not None
    assert cx.v == (ONE, ONE, ZERO, ZERO) and cx.v_prime == (ONE,) * 4
    assert Q(7, 10) < cx.violation and 2 * cx.violation ** 2 <= 1
    assert all(s > 0 for row in cx.tail_slacks for s in row)
    assert cx.proximity_slack > 0
    # Past the ratio the pair is no counterexample.
    above = DeterminingQuery(sys_, gen, rho, Q(3, 4), 4)
    assert verify_pair(above, (ONE, ZERO), (ZERO, ONE)) is None
    # (1, -1) vanishes through stage N, so its stage-1 constraint fails.
    assert verify_pair(q, (ONE, -ONE), (ZERO, ONE)) is None
    # A zero stage-M image has no norm to compare against.
    assert verify_pair(q, (ZERO, ZERO), (ZERO, ONE)) is None


def _rationals(rng, n, den):
    """n rationals with denominators up to den (the search rationalizes
    its iterates to 10**6), zero entries included."""
    return tuple(Q(rng.randint(-3 * den, 3 * den) if rng.random() < 0.8
                   else 0, rng.randint(1, den)) for _ in range(n))


def _stage_space(rng, kind, dim):
    if kind in ("hpoly", "vpoly"):
        rows = [[ONE if j == i else ZERO for j in range(dim)]
                for i in range(dim)] + [
            [Q(rng.randint(-3, 3), 2) for _ in range(dim)]
            for _ in range(rng.randint(0, 2))]
        return (hpoly_space if kind == "hpoly" else vpoly_space)(rows)
    p, weighted = kind.split("-")
    weights = ([Q(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(dim)]
               if weighted == "w" else None)
    return lp_space(p, dim=dim, weights=weights)


def _oracle_query(rng, kind, dense):
    """A query on coordinate-drop or dense bonds.  Its last generator
    column mostly vanishes through stage N when the bonds allow it, so a
    pair (a, a + t e_last) often violates."""
    M, d = rng.randint(2, 4), rng.randint(1, 3)
    N = rng.randint(1, M)
    dims = (sorted(rng.randint(1, 3) for _ in range(M)) if dense
            else list(range(1, M + 1)))
    spaces = [_stage_space(rng, kind, n) for n in dims]
    bonds = [linear_map(spaces[i], spaces[i - 1], [
        [Q(rng.randint(-2, 2)) if dense else Q(int(j == k))
         for j in range(dims[i])] for k in range(dims[i - 1])])
        for i in range(1, M)]
    system = InverseSystem(lambda i: spaces[i - 1], lambda i: bonds[i - 1], M)
    tail = [list(_rationals(rng, d, 4)) for _ in range(dims[-1])]
    to_n = linalg.identity(dims[-1])
    for i in range(M - 1, N - 1, -1):
        to_n = bonds[i - 1].mat_mul(to_n)
    kernel = linalg.nullspace(to_n)
    if kernel and rng.random() < 0.75:
        for row, k in zip(tail, kernel[0]):
            row[-1] = k
    rho = sorted((rng.choice([ONE, ONE, HALF, Q(1, 10)]) for _ in range(N)),
                 reverse=True)
    eps = rng.choice([Q(1, 100), Q(1, 10), Q(1, 4), Q(2)])
    return DeterminingQuery(system, generator_from_tail(system, tail),
                            RhoSchedule(rho), eps, M)


def _assert_rational_fields(cx):
    for vec in (cx.a, cx.a_prime, cx.v, cx.v_prime) + cx.tail_slacks:
        assert type(vec) is tuple and all(type(x) is Fraction for x in vec)
    assert (type(cx.proximity_slack) is Fraction
            and type(cx.violation) is Fraction)


def _check_against_reference(q, a, b):
    got, want = verify_pair(q, a, b), verify_pair_reference(q, a, b)
    assert got == want
    if got is None:
        return
    _assert_rational_fields(got)
    # Ties: eps at the exact violation still counts.
    at = DeterminingQuery(q.system, q.gen, q.rho, want.violation,
                          q.eval_stage)
    assert verify_pair(at, a, b) == verify_pair_reference(at, a, b) == want
    # A rho that makes the first tail slack of a exactly 0 fails.
    top, first = (q.system.stage(i) for i in (q.eval_stage, 1))
    va = q.gen.member(a).stages
    if not determining.is_l2(top) and not determining.is_l2(first):
        ratio = norm_eval(first, va[0]) / norm_eval(top, va[-1])
        if 0 <= ratio < 1:
            tie = DeterminingQuery(q.system, q.gen, RhoSchedule((1 - ratio,)),
                                   q.eps, q.eval_stage)
            assert verify_pair(tie, a, b) is None
            assert verify_pair_reference(tie, a, b) is None


_STAGE_KINDS = ["1-u", "1-w", "inf-u", "inf-w", "2-u", "2-w", "hpoly",
                "vpoly"]


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32))
def test_verify_pair_matches_the_fraction_reference(seed):
    # Every stage kind on coordinate and dense bonds; each pair has zero,
    # small-denominator or 10**6-denominator entries, and is a random pair
    # or a step along the last generator column.
    rng = random.Random(seed)
    for kind in _STAGE_KINDS:
        for dense in (False, True):
            q = _oracle_query(rng, kind, dense)
            for _ in range(4):
                den = rng.choice([1, 10**3, 10**6])
                a = _rationals(rng, q.gen.param_dim, den)
                b = (a[:-1] + (a[-1] + _rationals(rng, 1, den)[0],)
                     if rng.random() < 0.75
                     else _rationals(rng, q.gen.param_dim, den))
                _check_against_reference(q, a, b)


def test_verify_pair_hits_are_rational_on_every_stage_kind():
    # The prefix pair on l1, linf and l2 drop systems, and on the rescaled
    # V-polytope presentation of the polytopal two.
    for drop_system in (l1_drop_system, linf_drop_system, l2_drop_system):
        sys_ = drop_system(4)
        gen = generator_from_tail(sys_, [[ONE, ONE], [ONE, ONE],
                                         [ZERO, ONE], [ZERO, ONE]])
        pairs = [(sys_, gen)] + ([] if drop_system is l2_drop_system else
                                 [rescaled_image_presentation(sys_, gen)])
        for system, g in pairs:
            q = DeterminingQuery(system, g, RhoSchedule((ONE, ONE)),
                                 Q(1, 4), 4)
            cx = verify_pair(q, (ONE, ZERO), (ZERO, ONE))
            assert cx == verify_pair_reference(q, (ONE, ZERO), (ZERO, ONE))
            _assert_rational_fields(cx)


def test_verify_pair_takes_integers_over_denominators():
    # The certify sweep's entry: integer vectors over their own (not
    # necessarily least) denominators give what the rationals they stand
    # for give, Counterexample fields and all.
    rng, hits = random.Random(4), 0
    for drop_system in (l1_drop_system, linf_drop_system, l2_drop_system):
        sys_ = drop_system(4)
        gen = generator_from_tail(sys_, [[ONE, ONE], [ONE, ONE],
                                         [ZERO, ONE], [ZERO, ONE]])
        q = DeterminingQuery(sys_, gen, RhoSchedule((ONE, ONE)), Q(1, 4), 4)
        for _ in range(20):
            cx, cy = rng.randint(5, 40), rng.randint(5, 40)
            x = (cx + rng.randint(-9, 9), rng.randint(-9, 9))
            y = (rng.randint(-9, 9), rng.randint(-9, 9))
            ce = verify_pair(q, x, y, (cx, cy))
            assert ce == verify_pair(q, linalg.unscale(x, cx),
                                     linalg.unscale(y, cy))
            hits += ce is not None
    assert 0 < hits < 60


# ---------------------------------------------------------------------------
# Parameter-space pullback

def test_parameter_space_pullback_norms():
    q = prefix_obstruction_query(2)  # sup-norm drop system, M = 4
    dom = parameter_space(q.gen, 4)
    rng = random.Random(7)
    for _ in range(25):
        a = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
        direct = norm_eval(q.system.stage(4),
                           linalg.mat_vec(q.gen.matrix(4), a))
        assert norm_eval(dom, a) == direct


def test_parameter_space_pullback_l1_signs():
    q = _truncation_query(5, (HALF,), ONE)
    dom = parameter_space(q.gen, 5)
    rng = random.Random(8)
    for _ in range(25):
        a = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
        direct = norm_eval(q.system.stage(5),
                           linalg.mat_vec(q.gen.matrix(5), a))
        assert norm_eval(dom, a) == direct


def test_l1_pullback_refuses_too_many_sign_patterns():
    with pytest.raises(ValueError, match="too many sign patterns"):
        determining._pullback(lp_space(1, dim=14), [[ONE]] * 14)


def test_vpoly_pullback_needs_a_square_generator():
    with pytest.raises(ValueError, match="cannot pull a vpoly norm back"):
        determining._pullback(vpoly_space([(1, 0), (0, 1)]), [[ONE], [ONE]])


def test_parameter_space_pullback_hpoly_stages():
    # H-polytope stages, the last coordinate dropped between them: the
    # pullback through G is the H-polytope of the rows r G.
    stages = [hpoly_space([[1, 0], [0, 1], [1, -1]]),
              hpoly_space([[1, 0, 0], [0, 1, 0], [1, 1, 1], [0, 0, 2]])]
    bond = linear_map(stages[1], stages[0], [[1, 0, 0], [0, 1, 0]])
    sys_ = InverseSystem(lambda i: stages[i - 1], lambda i: bond, 2)
    gen = generator_from_tail(sys_, [[ONE, ZERO], [ZERO, ONE], [ONE, ONE]])
    rng = random.Random(9)
    for stage in (1, 2):
        dom = parameter_space(gen, stage)
        assert dom.spec.kind == "hpoly"
        for _ in range(25):
            a = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(2))
            direct = norm_eval(sys_.stage(stage),
                               linalg.mat_vec(gen.matrix(stage), a))
            assert norm_eval(dom, a) == direct


def test_parameter_space_requires_injectivity():
    sys_ = l1_drop_system(3)
    gen = generator_from_tail(sys_, [[ONE, ONE], [ZERO, ZERO], [ZERO, ZERO]])
    with pytest.raises(ValueError):
        parameter_space(gen, 3)


# ---------------------------------------------------------------------------
# Search

def test_search_finds_forced_pair():
    q = prefix_obstruction_query(3)
    rep = eps_determining_search(q)
    assert rep.kind == "counterexample"
    assert rep.counterexample.violation >= Q(9, 10)
    # Independent exact re-check of the reported pair.
    again = verify_pair(q, rep.counterexample.a, rep.counterexample.a_prime)
    assert again is not None
    assert again.violation == rep.counterexample.violation


def test_search_not_found_on_certified_instance():
    rep = eps_determining_search(_d1_query())
    assert rep.kind == "not-found"
    assert rep.counterexample is None


def test_search_without_a_start_raises():
    # A one-parameter generator has no axis starts.
    with pytest.raises(ValueError, match="no start"):
        eps_determining_search(_d1_query(search=SearchConfig(starts=0)))
    assert eps_determining_search(
        _d1_query(search=SearchConfig(starts=1))).starts == 1


def _search_reference_queries():
    """The prefix grid N = 2..10 x eps {1/4, 1/3, 1/2} x four seeds, then
    random two- and three-parameter truncations of the l1 and linf drop
    systems, then V-polytope stages.  Most searches are short, to keep the
    sequential reference cheap; the grid's equal denominators make every
    candidate repeat its pair, and a few queries run at the default
    length."""
    for N in range(2, 11):
        for eps in (Q(1, 4), Q(1, 3), HALF):
            for seed in (0, 1, 7, 12345):
                yield prefix_obstruction_query(N, eps=eps, search=SearchConfig(
                    starts=1, iters=6, seed=seed, max_den=1000))
    rng = random.Random(2024)
    for t in range(48):
        M, d = rng.randint(3, 8), rng.choice((2, 2, 3))
        sys_ = (l1_drop_system if t % 2 else linf_drop_system)(M)
        tail = [[Q(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(d)]
                for _ in range(M)]
        rho = sorted((Q(rng.randint(1, 12), 12)
                      for _ in range(rng.randint(1, min(3, M - 1)))),
                     reverse=True)
        search = (SearchConfig(seed=t) if t % 16 == 0 else
                  SearchConfig(starts=rng.choice((0, 3)),
                               iters=rng.choice((8, 16)), seed=t))
        yield DeterminingQuery(sys_, generator_from_tail(sys_, tail),
                               RhoSchedule(tuple(rho)),
                               Q(rng.randint(1, 16), 8), M, search=search)
    yield prefix_obstruction_query(2, search=SearchConfig(seed=5))
    # V-polytope stages: random quotient systems and a rescaled presentation.
    for t in range(6):
        sys_ = random_quotient_system(t, 4, dim_cap=2)
        top = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
               for _ in range(sys_.stage(4).dim)]
        if linalg.rank(top) == 2:
            yield DeterminingQuery(sys_, generator_from_tail(sys_, top),
                                   RhoSchedule((Q(t + 3, 12),) * 2),
                                   Q(t + 1, 8), 4, search=SearchConfig(
                                       starts=2, iters=12, seed=t))
    rsys, rgen = rescaled_image_presentation(*_flip_instance())
    yield DeterminingQuery(rsys, rgen, RhoSchedule((HALF, HALF)), Q(1, 4), 3,
                           search=SearchConfig(starts=2, iters=12))


def test_search_matches_the_sequential_reference(monkeypatch):
    # verify_pair is exact and deterministic; sharing its results between
    # the two searches only saves time.
    monkeypatch.setattr(determining, "verify_pair",
                        functools.lru_cache(maxsize=None)(verify_pair))
    kinds = set()
    for n, q in enumerate(_search_reference_queries(), 1):
        rep = eps_determining_search(q)
        assert rep == sequential_search_reference(q), n
        kinds.add(rep.kind)
    assert n >= 150 and kinds == {"counterexample", "not-found"}


_STAGE_KINDS = ("l1", "linf", "l2", "wl1", "wlinf", "wl2", "hpoly", "vpoly")


def _stage_space(rng, kind, dim):
    if kind.lstrip("w") in ("l1", "linf", "l2"):
        p = {"l1": 1, "linf": "inf", "l2": 2}[kind.lstrip("w")]
        return lp_space(p, dim=dim) if kind[0] != "w" else lp_space(
            p, weights=[Q(rng.randint(1, 97), rng.randint(1, 89))
                        for _ in range(dim)])
    build = hpoly_space if kind == "hpoly" else vpoly_space
    return build(random_spanning_vectors(rng, dim, dim + rng.randint(0, 2)))


def _mixed_query(rng, d, kinds, search=SearchConfig()):
    """A query on stages of the given kinds (one-row stages among them),
    with random bonds and top matrix of non-dyadic rationals, the top
    matrix scaled by 10^k, k in -3..3.  Nothing checks the bonds."""
    M = len(kinds)
    dims = [rng.choice((1, 2, 3, 4)) for _ in kinds]
    spaces = [_stage_space(rng, k, n) for k, n in zip(kinds, dims)]

    def rat(scale=1):
        return Q(rng.randint(-999, 999), rng.randint(1, 997)) * scale
    bonds = [linear_map(spaces[j + 1], spaces[j],
                        [[rat() for _ in range(dims[j + 1])]
                         for _ in range(dims[j])]) for j in range(M - 1)]
    sys_ = InverseSystem(lambda j: spaces[j - 1], lambda j: bonds[j - 1], M,
                         "mixed")
    scale = Q(10) ** rng.randint(-3, 3)
    gen = generator_from_tail(sys_, [[rat(scale) for _ in range(d)]
                                     for _ in range(dims[-1])])
    N = rng.randint(1, M)
    rho = sorted((Q(rng.randint(1, 12), 12) for _ in range(N)), reverse=True)
    return DeterminingQuery(sys_, gen, RhoSchedule(tuple(rho)),
                            Q(rng.randint(1, 16), 8), rng.randint(N, M),
                            search=search)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_margins_match_the_per_pair_reference_bitwise(d):
    # The stacked margins give every row the float the per-pair reference
    # computes alone, to the bit, at scales 1e-3..1e3.
    rng, nrng = random.Random(d), np.random.default_rng(d)
    seen, one_row = set(), False
    for t in range(12):
        kinds = [_STAGE_KINDS[(t + k) % 8] for k in range(rng.randint(2, 5))]
        q = _mixed_query(rng, d, kinds)
        seen |= {kinds[i - 1] for i in range(1, q.rho.length + 1)}
        one_row |= any(len(q.gen.matrix(i)) == 1
                       for i in range(1, q.rho.length + 1))
        fq, ref = determining._FloatQuery(q), float_margin_fn(q)
        for scale in (1e-3, 1.0, 1e3):
            A = nrng.uniform(-1, 1, (12, d)) * scale
            B = A + nrng.uniform(-1, 1, (12, d)) * scale * nrng.choice(
                [1e-3, 1e-1, 1.0])
            A[0] = B[0] = 0.0
            want = np.array([ref(a, b) for a, b in zip(A, B)])
            got = fq.margins(A, B)
            assert (got.view(np.int64) == want.view(np.int64)).all(), t
    assert seen == set(_STAGE_KINDS) and one_row


def test_search_on_l2_and_hpoly_stages_matches_the_sequential_reference(
        monkeypatch):
    monkeypatch.setattr(determining, "verify_pair",
                        functools.lru_cache(maxsize=None)(verify_pair))
    rng = random.Random(16)
    kinds = set()
    for t in range(16):
        stages = [("l2", "hpoly", "wl2")[(t + k) % 3]
                  for k in range(rng.randint(2, 4))]
        q = _mixed_query(rng, rng.choice((2, 3)), stages, SearchConfig(
            starts=rng.choice((0, 2)), iters=12, seed=t))
        rep = eps_determining_search(q)
        assert rep == sequential_search_reference(q), t
        kinds.add(rep.kind)
    assert kinds == {"counterexample", "not-found"}


def test_search_l1_truncation_counterexample():
    # Loose rho and small eps leave room for tail-mass violations.
    q = _truncation_query(6, (HALF, HALF), Q(1, 4))
    rep = eps_determining_search(q)
    assert rep.kind == "counterexample"
    assert verify_pair(q, rep.counterexample.a,
                       rep.counterexample.a_prime) is not None


# ---------------------------------------------------------------------------
# Certification

def test_certify_d1_certificate():
    rep = eps_determining_certify(_d1_query(certify=CertifyConfig(
        delta=Q(1, 10))))
    assert rep.kind == "certificate"
    assert rep.counterexample is None
    assert rep.points_checked > 0


def test_certify_counterexample_forced_pair():
    q = prefix_obstruction_query(2, certify=CertifyConfig(delta=Q(1, 10)))
    rep = eps_determining_certify(q)
    assert rep.kind == "counterexample"
    assert rep.counterexample.violation >= Q(9, 10)
    assert verify_pair(q, rep.counterexample.a,
                       rep.counterexample.a_prime) is not None


def test_certify_tight_rho_certificate():
    # 1/N + 2 rho < eps leaves no room for violating pairs.
    q = _truncation_query(12, (Q(1, 100), Q(1, 100)), ONE,
                          certify=CertifyConfig(delta=Q(1, 40)))
    rep = eps_determining_certify(q)
    assert rep.kind == "certificate"


def test_certify_monotone_in_eps():
    # A certificate at eps stays a certificate at any larger eps.
    base = _d1_query(certify=CertifyConfig(delta=Q(1, 10)))
    assert eps_determining_certify(base).kind == "certificate"
    wider = DeterminingQuery(base.system, base.gen, base.rho, ONE,
                             base.eval_stage, certify=base.certify)
    assert eps_determining_certify(wider).kind == "certificate"


def test_certify_monotone_in_rho():
    # Shrinking rho only removes candidate pairs: never flips a
    # certificate into a counterexample.
    base = _d1_query(certify=CertifyConfig(delta=Q(1, 10)))
    assert eps_determining_certify(base).kind == "certificate"
    tight = DeterminingQuery(base.system, base.gen,
                             RhoSchedule((Q(1, 8), Q(1, 8))), base.eps,
                             base.eval_stage, certify=base.certify)
    assert eps_determining_certify(tight).kind != "counterexample"


def _tail_query(norm, tail, rho, eps, delta, rounds, budget):
    builder = {"l1": l1_drop_system, "linf": linf_drop_system}[norm]
    sys_ = builder(len(tail))
    gen = generator_from_tail(sys_, [[Q(x) for x in row] for row in tail])
    return DeterminingQuery(
        sys_, gen, RhoSchedule(tuple(Q(r) for r in rho)), Q(eps), len(tail),
        certify=CertifyConfig(delta=Q(delta), refine_rounds=rounds,
                              budget=budget))


_TAIL_CERT = [[1, -2], [0, 1], [1, 2], [0, 0], [-1, 0], [2, 1]]
_TAIL_NEAR = [[-2, 2], [1, -2], [1, -1], [0, 0], [-2, 2], [2, 2]]
_TAIL_D3 = [[0, 2, 0], [-2, 0, 1], [-1, 1, 2], [-2, -1, -1]]
_TAIL_CE = [[1, -2], [2, 2], [0, -1], [0, -1], [0, 0]]
_BUDGET = CertifyConfig.budget


@pytest.mark.parametrize("query, kind, checked, refinements, points", [
    (("linf", _TAIL_CERT, ["5/12", "1/12"], 2, "1/8", 2, _BUDGET),
     "certificate", 21024, 15, None),
    (("linf", _TAIL_NEAR, ["1/4", "1/12"], 2, "1/16", 2, _BUDGET),
     "counterexample", 156929, 79, (["1/2", "0"], ["-1/66", "-16/33"])),
    (("linf", _TAIL_NEAR, ["1/4", "1/12"], 2, "1/8", 2, _BUDGET),
     "straddle", 53648, 595,
     (["128/257", "-1/514"], ["-15/542", "-128/271"], "1")),
    (("linf", _TAIL_NEAR, ["1/4", "1/12"], 2, "1/8", 2, 150000),
     "budget", 30023, 118,
     (["128/257", "-1/514"], ["-15/542", "-128/271"], "1")),
    (("l1", _TAIL_D3, ["1/12"], "5/8", "1/2", 1, 400000), "budget", 43974, 132,
     (["-7/81", "32/81", "-22/81"], ["-7/81", "32/81", "-22/81"], "1/16")),
    (("linf", _TAIL_NEAR, ["1/4", "1/12"], 2, "1/8", 0, 20000),
     "budget", 20808, 0, None),
    (("linf", _TAIL_CE, ["1/2"], 2, "1/8", 2, _BUDGET),
     "counterexample", 20808, 0, (["2/3", "-1/6"], ["0", "-1/2"])),
    (None, "counterexample", 38808, 0, (["2", "-1"], ["1", "0"])),
], ids=["certificate", "refined-counterexample", "straddle", "budget",
        "budget-d3", "budget-between-suspects", "coarse-counterexample",
        "canonical-counterexample"])
def test_certify_sweep_output_is_pinned(query, kind, checked, refinements,
                                        points):
    # Pinned counts and points: a change in the order in which the sweep
    # visits its nodes, or in the nodes it keeps, moves them.
    q = (prefix_obstruction_query(2, certify=CertifyConfig(delta=Q(1, 10)))
         if query is None else _tail_query(*query))
    rep = eps_determining_certify(q)
    assert (rep.kind, rep.points_checked, rep.refinements) == (
        "undecided" if kind in ("straddle", "budget") else kind, checked,
        refinements)
    assert ("budget" in rep.statement) == (kind == "budget")
    if rep.counterexample is not None:
        got = (rep.counterexample.a, rep.counterexample.a_prime)
    else:
        got = rep.straddle and rep.straddle[:3]
    want = points and tuple(tuple(Q(x) for x in p) if isinstance(p, list)
                            else Q(p) for p in points)
    assert got == want


def test_search_certify_agreement_random():
    rng = random.Random(11)
    for trial in range(6):
        M = rng.randint(3, 5)
        rho = Q(rng.randint(1, 6), 12)
        eps = Q(rng.randint(1, 8), 8)
        q = _truncation_query(M, (rho,), eps,
                              search=SearchConfig(seed=trial),
                              certify=CertifyConfig(delta=Q(1, 8),
                                                    refine_rounds=2))
        cert = eps_determining_certify(q)
        found = eps_determining_search(q)
        if cert.kind == "certificate":
            assert found.kind == "not-found"
        elif cert.kind == "counterexample":
            assert verify_pair(q, cert.counterexample.a,
                               cert.counterexample.a_prime) is not None


# ---------------------------------------------------------------------------
# Sequence diagnostics

def _ones_prefix_sequence(M, extra=3):
    sys_ = linf_drop_system(M)
    return sys_, [compatible_from_tail(
        sys_, [ONE] * min(k, M) + [ZERO] * (M - min(k, M)))
        for k in range(1, M + extra + 1)]


def test_dp_diagnostic_ones_prefix():
    _, seq = _ones_prefix_sequence(6)
    rep = dp_diagnostic(seq)
    # Sup norm of a 0/1 prefix equals 1 at every stage it survives to.
    assert all(u == 0 for u in rep.uniformity)
    assert rep.uniform_within_tol
    assert rep.blocks == tuple(range(1, 7))


def test_dp_profile_nonincreasing_random():
    sys_ = l1_drop_system(6)
    rng = random.Random(13)
    seq = [compatible_from_tail(
        sys_, [Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(6)])
        for _ in range(8)]
    rep = dp_diagnostic(seq)
    for i in range(len(rep.uniformity) - 1):
        assert rep.uniformity[i] >= rep.uniformity[i + 1]
    assert rep.uniformity[-1] == 0  # top-stage projection is the identity


def test_anp_diagnostic_converging_sequence():
    sys_ = l1_drop_system(5)
    e1 = (ONE, ZERO, ZERO, ZERO, ZERO)
    seq = []
    for k in range(8):
        tail = list(e1)
        tail[1] = Q(1, 2**(k + 30))   # below the default tolerance quickly
        seq.append(compatible_from_tail(sys_, tail))
    rep = anp_diagnostic(seq)
    assert rep.weak_star_convergent
    assert rep.norm_converges
    assert rep.strong_converges
    assert all(r >= 0 for r in rep.norm_residuals)


def test_anp_diagnostic_divergent_sequence():
    sys_ = l1_drop_system(4)
    seq = [compatible_from_tail(sys_, [Q((-1)**k), ZERO, ZERO, ZERO])
           for k in range(6)]
    rep = anp_diagnostic(seq)
    assert not rep.weak_star_convergent
    assert not rep.norm_converges


def test_equivalence_witness_ones_prefix():
    _, seq = _ones_prefix_sequence(6)
    rep = equivalence_witness(seq)
    assert rep.agree
    assert rep.identity_holds
    assert all(t == 0 for t in rep.terms)


def test_equivalence_identity_exact_random():
    sys_ = l1_drop_system(5)
    rng = random.Random(17)
    base = [Q(rng.randint(-2, 2)) for _ in range(5)]
    seq = [compatible_from_tail(sys_, base) for _ in range(4)]
    # Perturb early terms only; the tail is constant, so the sequence
    # converges stagewise and the witness identity must hold exactly.
    seq[0] = compatible_from_tail(
        sys_, [b + Q(1, 3) for b in base])
    rep = equivalence_witness(seq)
    assert rep.agree
    assert rep.identity_holds
    assert sum(rep.terms) == rep.terms[0] + rep.terms[1] + rep.terms[2]


def test_equivalence_witness_requires_convergence():
    sys_ = l1_drop_system(4)
    seq = [compatible_from_tail(sys_, [Q((-1)**k), ZERO, ZERO, ZERO])
           for k in range(6)]
    with pytest.raises(ValueError):
        equivalence_witness(seq)


def test_equivalence_witness_projects_through_the_bonds():
    # pi_i w is the stage-i limit, read through the bonds; the first i
    # coordinates of w are that only for coordinate-drop bonds.
    rq = random_quotient_system(3, 4)
    tail = [Q(k - 1, 2) for k in range(rq.stage(4).dim)]
    seq = [compatible_from_tail(rq, tail)] * 3
    rep = equivalence_witness(seq)
    assert rep.identity_holds
    assert -rep.terms[2] < Q(1, 10**6)


def test_equivalence_stage_is_the_first_with_a_small_limit_gap():
    # The bond l1^2 -> l1^1 keeps the second coordinate: the tail (0, 5)
    # has stage-1 limit (5), so the limit gap already closes at stage 1.
    l1 = {i: lp_space(1, dim=i) for i in (1, 2)}
    sys_ = InverseSystem(l1.get, lambda i: linear_map(l1[2], l1[1], [[0, 1]]),
                         2)
    seq = [compatible_from_tail(sys_, [ZERO, Q(5)])] * 3
    assert dp_diagnostic(seq).uniformity[0] == 0
    rep = equivalence_witness(seq)
    assert rep.stage_i == 1
    assert rep.terms == (0, 0, 0)


# ---------------------------------------------------------------------------
# Quotient-restriction check and the rescaled presentation

def test_gfda_passes_on_tight_truncation():
    sys_ = l1_drop_system(12)
    gen = generator_from_tail(
        sys_, [[ONE, ZERO], [ZERO, ONE]] + [[ZERO, ZERO]] * 10)
    q = DeterminingQuery(sys_, gen, RhoSchedule((Q(1, 100), Q(1, 100))),
                         ONE, 12, certify=CertifyConfig(delta=Q(1, 40)))
    rep = gfda_check(sys_, gen, 2, q)
    assert all(v.verdict for v in rep.stage_verdicts)
    assert rep.certify.kind == "certificate"
    assert rep.passes


def test_gfda_fails_on_obstructed_slice():
    q = prefix_obstruction_query(2, certify=CertifyConfig(delta=Q(1, 10)))
    rep = gfda_check(q.system, q.gen, 2, q)
    assert all(v.verdict for v in rep.stage_verdicts)
    assert rep.certify.kind == "counterexample"
    assert not rep.passes


def _flip_instance():
    sys_ = linf_drop_system(3)
    gen = SubspaceGenerator(sys_, [
        [[ONE, ZERO]],
        [[ONE, ZERO], [ZERO, ONE]],
        [[ONE, ZERO], [ZERO, ONE], [ONE, ONE]]])
    return sys_, gen


def test_gfda_detects_non_quotient_restriction():
    sys_, gen = _flip_instance()
    q = DeterminingQuery(sys_, gen, RhoSchedule((HALF, HALF)), Q(1, 4), 3,
                         certify=CertifyConfig(delta=Q(1, 10)))
    rep = gfda_check(sys_, gen, 3, q)
    # Stage 2 restriction shrinks (1, 1): its unique preimage has twice
    # the norm, so the quotient verdict fails there.
    assert rep.stage_verdicts[0].verdict
    assert not rep.stage_verdicts[1].verdict
    assert not rep.passes


def test_rescaled_presentation_flips_quotient_verdicts():
    sys_, gen = _flip_instance()
    rsys, rgen = rescaled_image_presentation(sys_, gen)
    q = DeterminingQuery(rsys, rgen, RhoSchedule((HALF, HALF)), Q(1, 4), 3,
                         certify=CertifyConfig(delta=Q(1, 10)))
    rep = gfda_check(rsys, rgen, 3, q)
    assert all(v.verdict for v in rep.stage_verdicts)
    # The rescaling enlarges early-stage norms and manufactures a
    # genuine violating pair.
    assert rep.certify.kind == "counterexample"
    cx = rep.certify.counterexample
    assert verify_pair(q, cx.a, cx.a_prime) is not None
    assert cx.violation >= Q(1, 4)


def test_rescaled_presentation_top_norm_unchanged():
    sys_, gen = _flip_instance()
    rsys, rgen = rescaled_image_presentation(sys_, gen)
    dom = parameter_space(gen, 3)
    rdom = parameter_space(rgen, 3)
    rng = random.Random(19)
    for _ in range(20):
        a = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
        assert norm_eval(dom, a) == norm_eval(rdom, a)


def _cube_constants(space):
    """The certify sweep's (max, min) of the norm over the l-inf unit
    sphere: the norm of the identity from the cube to the space, and 1 over
    the norm of the identity back."""
    cube, eye = lp_space("inf", dim=space.dim), linalg.identity(space.dim)
    return (operator_norm(linear_map(cube, space, eye)).upper,
            1 / operator_norm(linear_map(space, cube, eye)).upper)


def test_cube_constants_match_the_face_lp_and_cube_vertex_oracles():
    # The max of the norm over the l-inf unit sphere, the norm of the
    # identity from the cube, is its max over the cube's vertices; the min,
    # 1 over the norm of the identity back, is the least of one LP per cube
    # face.
    rng = random.Random(101)
    for d in (1, 2, 3, 4):
        for _ in range(2):
            w = [Q(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(d)]
            vecs = random_spanning_vectors(rng, d, d + 2)
            for space in (lp_space(1, weights=w), lp_space("inf", weights=w),
                          hpoly_space(vecs), vpoly_space(vecs)):
                top = max(norm_eval(space, s) for s in
                          itertools.product((ONE, -ONE), repeat=d))
                assert _cube_constants(space) == (
                    top, min_norm_on_cube_sphere(space)), (d, space.spec)


def test_certify_and_gfda_solve_no_lp(monkeypatch):
    # Criterion-8-style queries (drop systems, random injective d = 2
    # tails) and one gfda_check read every constant off cached vertex
    # lists.  The face-LP oracle solves LPs, and so does building the
    # parameter ball with enumeration capped at 1, to the same ball.
    solves = count_lp_solves(monkeypatch)
    rng = random.Random(808)
    kinds = set()
    for builder in (l1_drop_system, linf_drop_system) * 2:
        M = rng.randint(4, 6)
        tail = [[Q(rng.randint(-2, 2)) for _ in range(2)] for _ in range(M)]
        if linalg.rank(tail) < 2:
            tail[0], tail[1] = [ONE, ZERO], [ZERO, ONE]
        sys_ = builder(M)
        q = DeterminingQuery(sys_, generator_from_tail(sys_, tail),
                             RhoSchedule((Q(rng.randint(1, 6), 12),)),
                             Q(rng.randint(1, 8), 8), M,
                             certify=CertifyConfig(delta=Q(1, 8),
                                                   refine_rounds=2,
                                                   budget=300000))
        kinds.add(eps_determining_certify(q).kind)
    sys_, gen = _flip_instance()
    assert not gfda_check(sys_, gen, 3).passes
    assert len(solves) == 0 and len(kinds) > 1
    nu = parameter_space(q.gen, q.eval_stage)
    assert min_norm_on_cube_sphere(nu) == _cube_constants(nu)[1]
    assert len(solves) > 0
    solves.clear()
    lower_enumeration_caps(monkeypatch, 1)
    assert parameter_space(q.gen, q.eval_stage) == nu
    assert len(solves) > 0


# ---------------------------------------------------------------------------
# Sequence diagnostics against the forward definitions

def _settling_sequence(rng, system, K, delta, stab=None):
    """K compatible vectors: the first stab terms (random by default) move
    one coordinate of a base tail by up to 3/2, later ones are the base tail
    itself, an equal copy built from fresh scalars, or the base moved by
    delta times 1/4, 1/2, 3/5, 1 or 2 (two moves by 3/5 delta in opposite
    directions are each within delta of the base, but 6/5 delta apart)."""
    dim = system.stage(system.max_stage).dim
    base = [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
    stab = rng.randint(0, K) if stab is None else stab
    seq = []
    for k in range(K):
        tail = list(base)
        roll = rng.random()
        if k < stab:
            tail[rng.randrange(dim)] += Q(rng.randint(-3, 3), 2)
        elif roll < 0.25:
            tail = [Q(x.numerator, x.denominator) for x in base]
        elif roll < 0.75:
            tail[rng.randrange(dim)] += (rng.choice([-1, 1]) * delta
                                         * rng.choice([Q(1, 4), HALF, Q(3, 5),
                                                       ONE, 2]))
        seq.append(compatible_from_tail(system, tail))
    return seq


def test_sequence_diagnostics_match_the_forward_definitions():
    """Scans from the end, equal-vector skips and triangle-inequality
    pruning give the forward definitions' onsets, limits, profiles,
    residuals and witness on 336 sequences."""
    from oracles import sequence_diagnostics_reference
    builders = [lambda M, _: l1_drop_system(M),
                lambda M, _: linf_drop_system(M),
                lambda M, _: l2_drop_system(M),
                lambda M, seed: random_quotient_system(seed, M)]
    rng = random.Random(7)
    count = 0
    for seed in range(7):
        for build in builders:
            system = build(rng.randint(2, 6), seed)
            for K in (1, 2, 3, 15):
                for tol in (Q(-1, 10**6), ZERO, Q(1, 10**6)):
                    seq = _settling_sequence(rng, system, K,
                                             abs(tol) or Q(1, 10**6))
                    want = sequence_diagnostics_reference(seq, tol)
                    rep = invlim_convergence(seq, tol)
                    assert (rep.onsets, rep.stage_limits, rep.converges) == (
                        want["onsets"], want["stage_limits"],
                        want["converges"])
                    dp = dp_diagnostic(seq, tol)
                    assert dp.uniformity == want["uniformity"]
                    anp = anp_diagnostic(seq, tol)
                    for key in ("norm_residuals", "strong_residuals",
                                "norm_converges", "strong_converges"):
                        assert getattr(anp, key) == want[key], key
                    if want["converges"]:
                        eq = equivalence_witness(seq, tol)
                        assert (eq.stage_i, eq.onset_k, eq.terms) == (
                            want["stage_i"], want["onset_k"], want["terms"])
                        # Passed-in diagnostics (as anp-dp passes them)
                        # give the same report.
                        assert equivalence_witness(seq, tol, dp, anp) == eq
                    else:
                        with pytest.raises(ValueError):
                            equivalence_witness(seq, tol)
                    count += 1
    assert count == 336


def test_anp_dp_at_depth_200():
    """Both sequence diagnostics on 15 compatible vectors of l1^200 in the
    stages workload's shape (4-10 moved terms, then moves far below tol),
    within 3 s."""
    rng = random.Random(200)
    system = l1_drop_system(200)
    seq = _settling_sequence(rng, system, 15, Q(1, 10**9),
                             stab=rng.randint(4, 10))
    start = time.perf_counter()
    dp = dp_diagnostic(seq)
    anp = anp_diagnostic(seq)
    elapsed = time.perf_counter() - start
    assert dp.eval_stage == anp.eval_stage == 200
    assert elapsed < 3.0, elapsed

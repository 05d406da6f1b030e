import hashlib
import json
import random
import time

import pytest

from banachlim import linalg, linmap
from banachlim.scalar import Q, ZERO, ONE
from banachlim.linmap import (is_isometric_embedding, is_one_lipschitz,
                              is_quotient_map, linear_map, operator_norm)
from banachlim.space import dual_space, norm_eval, norm_eval_sq, lp_space
from banachlim.systems import (CompatibleVector, DirectSystem, InverseSystem,
                               StageError, SubspaceGenerator,
                               compatible_from_tail, diagonal_subsequence,
                               direct_limit_norm, dualize, generator_from_tail,
                               invlim_convergence, l1_drop_system,
                               l2_drop_system, lift_min_norm,
                               linf_drop_system, linf_padding_system, pairing,
                               pairing_isometry_check, project,
                               random_quotient_system, stage_norms,
                               system_from_json, system_to_json,
                               validate_standard, BUILTIN_SYSTEMS)


def _rand_tail(rng, dim, lo=-3, hi=3):
    return tuple(Q(rng.randint(lo, hi), rng.randint(1, 3))
                 for _ in range(dim))


def test_validate_l1_drop_all_pass():
    sys10 = l1_drop_system(10)
    verdicts = validate_standard(sys10)
    assert all(v.lipschitz_ok for v in verdicts)
    assert all(v.quotient_ok for v in verdicts)


def test_validate_scaled_bond_fails():
    base = l1_drop_system(4)

    def bond(i):
        T = base.bond(i)
        if i == 2:
            return linear_map(T.source, T.target,
                              [[2 * v for v in row] for row in T.matrix])
        return T

    bad = InverseSystem(base.stage, bond, 4, "bad")
    verdicts = validate_standard(bad)
    assert verdicts[0].lipschitz_ok
    assert not verdicts[1].lipschitz_ok
    assert verdicts[1].witness is not None


def test_validate_computes_each_route_once(monkeypatch):
    """One operator-norm route per bond, failing or not, and on a quotient
    system also when the quotient verdict follows; the verdicts and
    witnesses are is_one_lipschitz's and operator_norm's."""
    base = l1_drop_system(6)
    scales = [2, 1, Q(3, 2), 1, 3]

    def bond(i):
        T = base.bond(i)
        return linear_map(T.source, T.target, [[scales[i - 1] * v for v in row]
                                               for row in T.matrix])

    scaled = InverseSystem(base.stage, bond, 6, "scaled")
    l2 = l2_drop_system(3)
    l2_bad = InverseSystem(l2.stage, lambda i: linear_map(
        l2.stage(i + 1), l2.stage(i), [[2 * v for v in row]
                                       for row in l2.bond(i).matrix]), 3)
    for system, routes in ((l1_drop_system(6), 5), (scaled, 5), (l2_bad, 0)):
        want = []
        for i in range(1, system.max_stage):
            ok = is_one_lipschitz(system.bond(i))
            want.append((ok, None if ok else
                         operator_norm(system.bond(i)).witness))
        calls = []
        route = linmap._route_norm
        monkeypatch.setattr(linmap, "_route_norm",
                            lambda T: calls.append(T) or route(T))
        verdicts = validate_standard(system)
        monkeypatch.setattr(linmap, "_route_norm", route)
        assert [(v.lipschitz_ok, v.witness) for v in verdicts] == want
        assert [v.quotient_ok for v in verdicts] == [
            True if system.is_quotient_system and ok else None
            for ok, _ in want]
        assert len(calls) == routes
    assert [ok for ok, _ in want] == [False, False]


def test_validate_random_quotient_system():
    sysr = random_quotient_system(3, 5)
    verdicts = validate_standard(sysr)
    assert all(v.lipschitz_ok for v in verdicts)
    assert all(v.quotient_ok for v in verdicts)


def test_dualize_padding_gives_drop():
    ds = linf_padding_system(5)
    inv = dualize(ds)
    assert isinstance(inv, InverseSystem)
    st = inv.stage(3)
    assert st.spec.p == "1"
    # Bond = adjoint of padding = coordinate drop.
    assert inv.bond(2).matrix == ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO))


def test_dualize_twice_stagewise_isometric():
    rng = random.Random(9)
    sysr = random_quotient_system(5, 4)
    dd = dualize(dualize(sysr))
    for i in (1, 2, 4):
        S, S2 = sysr.stage(i), dd.stage(i)
        for _ in range(5):
            x = _rand_tail(rng, S.dim)
            assert norm_eval(S, x) == norm_eval(S2, x)


@pytest.mark.parametrize("build", list(BUILTIN_SYSTEMS.values()) + [
    lambda n: random_quotient_system(5, n)],
    ids=list(BUILTIN_SYSTEMS) + ["random_quotient"])
def test_dualize_twice_gives_the_system_back(build):
    system = build(4)
    dual, bidual = dualize(system), dualize(dualize(system))
    assert dual.label == system.label + "*"
    assert bidual.label == system.label
    for i in range(1, 5):
        S = system.stage(i)
        assert dual.stage(i) is dual_space(S)
        assert bidual.stage(i) == dual_space(dual_space(S)) == S
    for i in range(1, 4):
        assert bidual.bond(i).matrix == system.bond(i).matrix


def test_dualize_isometric_injective_to_quotient():
    ds = linf_padding_system(4)
    for i in range(1, 4):
        assert is_isometric_embedding(ds.bond(i)).verdict
    inv = dualize(ds)
    for i in range(1, 4):
        assert is_quotient_map(inv.bond(i)).verdict


def test_compatible_from_tail_and_project():
    sys3 = linf_drop_system(3)
    cv = compatible_from_tail(sys3, (ONE, ONE, ONE))
    assert cv.stages == ((ONE,), (ONE, ONE), (ONE, ONE, ONE))
    assert project(cv, 2) == (ONE, ONE)
    assert project(cv, 3) == (ONE, ONE, ONE)
    with pytest.raises(StageError):
        project(cv, 4)


def test_compatible_zero_tail():
    sys4 = l1_drop_system(4)
    cv = compatible_from_tail(sys4, (ZERO,) * 4)
    assert all(all(v == 0 for v in w) for w in cv.stages)


def test_compatible_invariants_random():
    rng = random.Random(33)
    for sysM in (l1_drop_system(6), linf_drop_system(6),
                 random_quotient_system(7, 5)):
        for _ in range(5):
            tail = _rand_tail(rng, sysM.stage(sysM.max_stage).dim)
            cv = compatibility = compatible_from_tail(sysM, tail)
            rep = stage_norms(cv)
            assert all(rep.norms[j] <= rep.norms[j + 1]
                       for j in range(len(rep.norms) - 1))
            assert rep.limit_estimate == rep.norms[-1]
            assert not rep.is_exact


def test_stage_norms_geometric_tail():
    M = 6
    sysM = l1_drop_system(M)
    tail = tuple(Q(1, 2 ** k) for k in range(M))
    cv = compatible_from_tail(sysM, tail, limit_norm=Q(2))
    rep = stage_norms(cv)
    assert rep.norms == tuple(2 - Q(1, 2 ** (j - 1)) for j in range(1, M + 1))
    assert rep.limit_estimate == 2 - Q(1, 2 ** (M - 1))
    assert rep.is_exact and rep.limit == 2


def test_stage_norms_constant_tail():
    sysM = l1_drop_system(5)
    tail = (ONE, ZERO, ZERO, ZERO, ZERO)
    cv = compatible_from_tail(sysM, tail, limit_norm=ONE)
    rep = stage_norms(cv)
    assert set(rep.norms) == {ONE}
    assert rep.is_exact and rep.limit == 1


def test_bad_compatible_vector_rejected():
    sys3 = l1_drop_system(3)
    with pytest.raises(StageError):
        CompatibleVector(sys3, ((ONE,), (ZERO, ZERO), (ZERO, ZERO, ZERO)))



def test_systems_refuse_out_of_range_input():
    sys3 = l1_drop_system(3)
    with pytest.raises(StageError, match="stage 4 outside 1..3"):
        sys3.stage(4)
    with pytest.raises(StageError, match="bond 3 outside 1..2"):
        sys3.bond(3)
    with pytest.raises(StageError, match="stage 2 vector has wrong dim"):
        CompatibleVector(sys3, ((ONE,), (ONE,), (ONE, ZERO, ZERO)))
    cv = compatible_from_tail(sys3, (ONE, ZERO, ZERO))
    with pytest.raises(StageError, match="covector dimension mismatch"):
        pairing(cv, 2, (ONE,))
    pad = linf_padding_system(3)
    with pytest.raises(StageError, match="stage 0 outside 1..3"):
        direct_limit_norm(pad, (ONE,), 0)
    with pytest.raises(StageError, match="vector has wrong dimension"):
        direct_limit_norm(pad, (ONE, ONE), 1)
    with pytest.raises(ValueError, match="empty sequence"):
        invlim_convergence([], Q(1, 10))
    assert diagonal_subsequence([], Q(1, 10)) == []


def test_compatible_from_tail_checks_the_tail_length():
    with pytest.raises(StageError, match="tail vector has wrong dimension"):
        compatible_from_tail(l1_drop_system(3), (ONE, ZERO))


def test_wrong_stage_rejected_at_depth():
    M = 60
    system = linf_drop_system(M)
    tail = tuple(Q(k, 7) for k in range(M))
    for k in (1, 30, M):
        stages = [tail[:i] for i in range(1, M + 1)]
        stages[k - 1] = (tail[0] + 1,) + stages[k - 1][1:]
        with pytest.raises(StageError, match="compatibility"):
            CompatibleVector(system, tuple(stages))
    CompatibleVector(system, tuple(tail[:i] for i in range(1, M + 1)))


def test_lift_min_norm_l1():
    sys4 = l1_drop_system(4)
    u = lift_min_norm(sys4, (ONE,), 1)
    assert u == (ONE, ZERO)
    # Iterated lifting preserves the norm.
    w = (ONE, Q(-1, 2))
    n = norm_eval(sys4.stage(2), w)
    for i in (2, 3):
        w = lift_min_norm(sys4, w, i)
        assert norm_eval(sys4.stage(i + 1), w) == n


def test_lift_non_quotient_errors():
    base = l1_drop_system(3)

    def bond(i):
        T = base.bond(i)
        return linear_map(T.source, lp_space(1, weights=[Q(1, 2)] * T.target.dim),
                          T.matrix)

    bad = InverseSystem(base.stage, bond, 3, "halfed", is_quotient_system=False)
    with pytest.raises(ValueError, match="quotient"):
        lift_min_norm(bad, (ONE,), 1)


def test_lift_checks_a_quotient_flag_read_from_json():
    # Both stages are l1^1 and the bond halves, so it is no quotient map,
    # yet the job claims quotient bonds: the lift of 1 would be 2.
    l1 = {"dim": 1, "spec": {"kind": "lp", "p": "1", "weights": ["1"]}}
    s = system_from_json({"spaces": [l1, l1], "bonds": [[["1/2"]]],
                          "is_quotient_system": True})
    with pytest.raises(ValueError, match="bond 1"):
        lift_min_norm(s, (ONE,), 1)
    assert validate_standard(s)[0].quotient_ok is False


def test_pairing_constant_tail():
    sys5 = l1_drop_system(5)
    cv = compatible_from_tail(sys5, (ONE, ZERO, ZERO, ZERO, ZERO))
    for j in (1, 3, 5):
        phi = tuple(ONE if k == 0 else ZERO for k in range(j))
        assert pairing(cv, j, phi) == 1


def test_pairing_pushforward_consistency():
    rng = random.Random(77)
    sysr = random_quotient_system(11, 5)
    for _ in range(5):
        cv = compatible_from_tail(sysr, _rand_tail(rng, sysr.stage(5).dim))
        for j in (1, 2, 3, 4):
            phi = _rand_tail(rng, sysr.stage(j).dim)
            phi_up = linalg.mat_vec(linalg.transpose(sysr.bond(j).matrix), phi)
            assert pairing(cv, j + 1, phi_up) == pairing(cv, j, phi)


def test_pairing_bound():
    rng = random.Random(78)
    sysr = random_quotient_system(13, 4)
    for _ in range(5):
        cv = compatible_from_tail(sysr, _rand_tail(rng, sysr.stage(4).dim))
        for j in (1, 2, 4):
            phi = _rand_tail(rng, sysr.stage(j).dim)
            val = abs(pairing(cv, j, phi))
            assert val <= norm_eval(dual_space(sysr.stage(j)), phi) * \
                norm_eval(sysr.stage(j), project(cv, j))


def test_pairing_isometry_linf():
    sys2 = linf_drop_system(2)
    cv = compatible_from_tail(sys2, (ONE, ONE))
    res = pairing_isometry_check(cv)
    assert res.verdict
    assert res.attained == 1


def test_pairing_isometry_zero():
    sys2 = l1_drop_system(2)
    cv = compatible_from_tail(sys2, (ZERO, ZERO))
    res = pairing_isometry_check(cv)
    assert res.verdict and res.attained == 0


def test_pairing_isometry_against_a_limit_norm():
    # Stage-4 norm 2 - 1/8 of the geometric tail, whose limit norm is 2.
    cv = compatible_from_tail(l1_drop_system(4),
                              tuple(Q(1, 2 ** k) for k in range(4)),
                              limit_norm=Q(2))
    assert pairing_isometry_check(cv, Q(1, 8)).limit_gap_within_eps
    assert not pairing_isometry_check(cv, Q(1, 16)).limit_gap_within_eps


def test_pairing_isometry_random_polytope():
    rng = random.Random(91)
    sysr = random_quotient_system(17, 4)
    for _ in range(6):
        cv = compatible_from_tail(sysr, _rand_tail(rng, sysr.stage(4).dim))
        assert pairing_isometry_check(cv).verdict


def test_invlim_convergence_c0_phenomenon():
    M = 6
    sysM = linf_drop_system(M)
    seq = []
    for k in range(1, M + 4):
        tail = tuple(ONE if j < min(k, M) else ZERO for j in range(M))
        seq.append(compatible_from_tail(sysM, tail))
    rep = invlim_convergence(seq, Q(1, 10**9))
    # Every stage is eventually constant, yet consecutive elements are at
    # distance 1 at the top stage: invlim-convergent, not strongly.
    assert rep.converges
    assert rep.onsets == tuple(range(M))
    top = sysM.stage(M)
    assert norm_eval(top, linalg.vec_sub(seq[4].stages[-1],
                                         seq[3].stages[-1])) == 1
    # Lower semicontinuity at the top stage.
    v = rep.stage_limits[M - 1]
    tail_norms = [norm_eval(top, project(cv, M)) for cv in seq[rep.onsets[M - 1]:]]
    assert norm_eval(top, v) <= min(tail_norms)


def test_invlim_constant_sequence():
    sys3 = l1_drop_system(3)
    cv = compatible_from_tail(sys3, (ONE, ONE, ONE))
    rep = invlim_convergence([cv] * 4, Q(0))
    assert rep.converges
    assert rep.stage_limits[2] == (ONE, ONE, ONE)


def test_diagonal_subsequence_extraction():
    rng = random.Random(101)
    sysM = l1_drop_system(5)
    bases = [tuple(Q(rng.randint(-2, 2), 2) for _ in range(5))
             for _ in range(6)]
    seq = []
    for _ in range(60):
        base = bases[rng.randrange(len(bases))]
        tail = tuple(b + Q(rng.randint(-1, 1), 1000) for b in base)
        seq.append(compatible_from_tail(sysM, tail))
    sub = diagonal_subsequence(seq, Q(1, 4))
    assert len(sub) >= 2
    assert invlim_convergence(sub, Q(1, 2)).converges


def test_diagonal_subsequence_matches_greedy_clustering():
    """Exact squares and equal-point skips keep the greedy clustering of
    the definition, on every norm kind and for eps < 0, = 0 and > 0 (moves
    of exactly eps = 1/10 put l2 points on the boundary, where a rational
    shadow of the square root exceeds eps)."""
    from oracles import greedy_cluster_reference
    rng = random.Random(103)
    for trial in range(48):
        M = rng.randint(2, 5)
        system = [l1_drop_system, linf_drop_system, l2_drop_system,
                  lambda M: random_quotient_system(trial, M)][trial % 4](M)
        dim = system.stage(M).dim
        eps = [Q(-1, 10), ZERO, Q(1, 10), Q(3, 10)][trial // 4 % 4]
        bases = [_rand_tail(rng, dim, -2, 2) for _ in range(3)]
        seq = []
        for _ in range(rng.randint(1, 12)):
            tail = list(rng.choice(bases))
            if rng.random() < 0.6:
                tail[rng.randrange(dim)] += Q(rng.choice([-3, -1, 1, 3]), 10)
            elif rng.random() < 0.5:
                tail = [Q(x.numerator, x.denominator) for x in tail]
            seq.append(compatible_from_tail(system, tail))
        want = [seq[k] for k in greedy_cluster_reference(seq, eps)]
        got = diagonal_subsequence(seq, eps)
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))


def test_direct_limit_norm_isometric():
    ds = linf_padding_system(5)
    norms, val = direct_limit_norm(ds, (ONE, Q(-1, 2)), 2)
    assert set(norms) == {ONE}
    assert val == 1


def test_direct_limit_norm_shrinking():
    def space_fn(i):
        return lp_space(1, dim=1, label=f"s{i}")

    def bond_fn(i):
        return linear_map(space_fn(i), space_fn(i + 1), [[Q(1, 2)]])

    ds = DirectSystem(space_fn, bond_fn, 6, "halving")
    norms, val = direct_limit_norm(ds, (ONE,), 1)
    assert norms == tuple(Q(1, 2 ** k) for k in range(6))
    assert val == Q(1, 32)


def test_direct_limit_norm_nonincreasing_random():
    rng = random.Random(111)
    ds = dualize(random_quotient_system(19, 5))
    for _ in range(5):
        i = rng.randint(1, 4)
        e = _rand_tail(rng, ds.stage(i).dim)
        norms, _ = direct_limit_norm(ds, e, i)
        assert all(norms[j + 1] <= norms[j] for j in range(len(norms) - 1))


def test_subspace_generator_validation():
    sys4 = linf_drop_system(4)
    g4 = [[ONE, ZERO], [ONE, ZERO], [ZERO, ONE], [ZERO, ONE]]
    gen = generator_from_tail(sys4, g4)
    assert gen.param_dim == 2
    cv = gen.member((ONE, Q(1, 2)))
    assert cv.stages[3] == (ONE, ONE, Q(1, 2), Q(1, 2))
    # Incompatible family rejected.
    mats = [gen.matrix(1), gen.matrix(2), gen.matrix(3),
            [[ZERO, ZERO]] * 4]
    with pytest.raises(StageError, match="incompatible"):
        SubspaceGenerator(sys4, mats)


def test_system_json_roundtrip_builtin():
    obj = {"builtin": "l1_drop", "stages": 6}
    sys6 = system_from_json(obj)
    assert sys6.max_stage == 6
    blob = system_to_json(sys6)
    sys6b = system_from_json(json.loads(json.dumps(blob)))
    assert system_to_json(sys6b) == blob


# sha256 of json.dumps(system_to_json(builtin(7))) with the bonds stored
# as dense matrices, before they took the coordinate form.
_DENSE_BOND_JSON = {
    "l1_drop":
        "dd92f40e8f9960d7893a7e2af53e58a5c158a0a55c7e38330d0367d9351d55d7",
    "l2_drop":
        "34a19d3d3ae49af4ec6228d15fa79e9955edcac51466d2b94d6519dd0d980f6d",
    "linf_drop":
        "d79db1ced1eac2c22e75dedf1a86c615c64a3a9e918282a3dfcc219c154a3f03",
    "linf_padding":
        "997051b4215e0f2cc20d102edeccf0998f1a9226f63f0d1c1483203fa7096eac",
}


@pytest.mark.parametrize("name", sorted(_DENSE_BOND_JSON))
def test_coordinate_bonds_serialise_as_dense_ones(name):
    system = BUILTIN_SYSTEMS[name](7)
    blob = json.dumps(system_to_json(system))
    assert hashlib.sha256(blob.encode()).hexdigest() == _DENSE_BOND_JSON[name]
    pad = name == "linf_padding"
    for i in range(1, 7):
        want = tuple(range(i)) + ((None,) if pad else ())
        assert system.bond(i).coords == want
        want_rows = [["1" if c == r else "0" for c in range(i + 1 - pad)]
                     for r in range(len(want))]
        assert system_to_json(system)["bonds"][i - 1] == want_rows
    # A drop or padding system read from a job file gets coordinate bonds.
    back = system_from_json(json.loads(blob))
    assert [back.bond(i).coords for i in range(1, 7)] == [
        system.bond(i).coords for i in range(1, 7)]
    assert json.dumps(system_to_json(back)) == blob


def test_system_json_roundtrip_random():
    sysr = random_quotient_system(23, 4)
    blob = system_to_json(sysr)
    sysr2 = system_from_json(json.loads(json.dumps(blob)))
    assert system_to_json(sysr2) == blob
    assert sysr2.is_quotient_system


def test_l2_drop_monotone_square_norms():
    rng = random.Random(121)
    sysM = l2_drop_system(8)
    for _ in range(5):
        cv = compatible_from_tail(sysM, _rand_tail(rng, 8))
        sq = [norm_eval_sq(sysM.stage(j), project(cv, j))
              for j in range(1, 9)]
        assert all(sq[j] <= sq[j + 1] for j in range(7))


@pytest.mark.parametrize("build", [l1_drop_system, linf_drop_system,
                                   l2_drop_system])
def test_stage_depth_200(build):
    """One vector and its stage norms at the paper's depth, checked
    against prefix sums, prefix maxima and exact squares."""
    M = 200
    rng = random.Random(200)
    tail = _rand_tail(rng, M, -6, 6)
    start = time.perf_counter()
    cv = compatible_from_tail(build(M), tail)
    norms = stage_norms(cv).norms
    elapsed = time.perf_counter() - start
    assert cv.stages == tuple(tail[:i] for i in range(1, M + 1))
    total = peak = square = ZERO
    for x, n in zip(tail, norms):
        total, peak, square = total + abs(x), max(peak, abs(x)), square + x * x
        if build is l1_drop_system:
            assert n == total
        elif build is linf_drop_system:
            assert n == peak
        else:
            assert abs(n * n - square) <= square * Q(1, 2**40)
    assert elapsed < 5.0, elapsed

"""End-to-end acceptance suite: nine numbered criteria, each printing one
PASS/FAIL line (run with -s to see them as they complete)."""

import itertools
import math
import random
import time

import pytest

from banachlim import linalg
from banachlim.scalar import Q, ZERO, ONE, to_float
from banachlim.space import (ball_extreme_points, dual_space, hpoly_space,
                             norm_eval, norm_eval_sq, vpoly_space)
from banachlim.linmap import (adjoint, is_isometric_embedding,
                              is_quotient_map, linear_map)
from banachlim.systems import (SubspaceGenerator, compatible_from_tail,
                               generator_from_tail, invlim_convergence,
                               l1_drop_system, l2_drop_system,
                               linf_drop_system, pairing,
                               pairing_isometry_check, project,
                               random_quotient_system, stage_norms)
from banachlim import determining as dt
from banachlim import curves as cu

from oracles import random_spanning_vectors, random_rational_vector


def _report(number, description, elapsed):
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 1. Bipolar duality

def test_criterion_1_bipolar_duality():
    start = time.perf_counter()
    rng = random.Random(101)
    for trial in range(200):
        dim = rng.randint(2, 4)
        vecs = random_spanning_vectors(rng, dim, dim + 2)
        space = vpoly_space(vecs) if trial % 2 else hpoly_space(vecs)
        double = dual_space(dual_space(space))
        for _ in range(100):
            x = random_rational_vector(rng, dim)
            assert norm_eval(space, x) == norm_eval(double, x)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(1, "bipolar duality exact on 200 random polytope norms x 100 "
               "vectors", elapsed)


# ---------------------------------------------------------------------------
# 2. Adjoint duality

def _signs(e):
    return list(itertools.product((ONE, -ONE), repeat=e))


def _pad_space(src, extra):
    d = src.dim
    if src.spec.kind == "vpoly":
        return vpoly_space([tuple(v) + s for v in src.spec.vertices
                            for s in _signs(extra)])
    funcs = [tuple(f) + (ZERO,) * extra for f in src.spec.functionals]
    funcs += [tuple(ZERO for _ in range(d + k)) + (ONE,)
              + (ZERO,) * (extra - k - 1) for k in range(extra)]
    return hpoly_space(funcs)


def _pad_matrix(d, extra):
    return [[ONE if i == j else ZERO for j in range(d)]
            for i in range(d + extra)]


def _rand_polytope_space(rng, dim):
    vecs = random_spanning_vectors(rng, dim, dim + 2)
    return vpoly_space(vecs) if rng.random() < 0.5 else hpoly_space(vecs)


def test_criterion_2_adjoint_duality():
    start = time.perf_counter()
    rng = random.Random(202)
    done = 0
    while done < 50:   # isometric embeddings -> adjoint quotient maps
        d = rng.choice([2, 3])
        src = _rand_polytope_space(rng, d)
        pad = linear_map(src, _pad_space(src, 1), _pad_matrix(d, 1))
        assert is_isometric_embedding(pad).verdict
        assert is_quotient_map(adjoint(pad)).verdict
        done += 1
    done = 0
    while done < 50:   # quotient maps -> adjoint isometric embeddings
        d = rng.choice([2, 3])
        src = _rand_polytope_space(rng, d + 1)
        rows = [[Q(rng.randint(-2, 2)) for _ in range(d + 1)]
                for _ in range(d)]
        if linalg.rank(rows) < d:
            continue
        image = [linalg.mat_vec(linalg.mat(rows), v)
                 for v in ball_extreme_points(src)]
        T = linear_map(src, vpoly_space(image), rows)
        assert is_quotient_map(T).verdict
        assert is_isometric_embedding(adjoint(T)).verdict
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    _report(2, "adjoint exchanges 50 isometric embeddings and 50 quotient "
               "maps exactly", elapsed)


# ---------------------------------------------------------------------------
# 3. Limit-norm monotonicity and lower semicontinuity

def test_criterion_3_limit_norm_monotone_lsc():
    start = time.perf_counter()
    rng = random.Random(303)
    M = 20
    systems = [l1_drop_system(M), linf_drop_system(M), l2_drop_system(M)]
    for trial in range(500):
        system = systems[trial % 3]
        cv = compatible_from_tail(
            system, [Q(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(M)])
        if trial % 3 == 2:   # euclidean stages: compare exact squares
            sq = [norm_eval_sq(system.stage(j), project(cv, j))
                  for j in range(1, M + 1)]
            assert all(sq[j] <= sq[j + 1] for j in range(M - 1))
        else:
            norms = stage_norms(cv).norms
            assert all(norms[j] <= norms[j + 1] for j in range(M - 1))
    # Lower semicontinuity along stagewise-convergent sequences.
    for trial in range(50):
        system = systems[trial % 2]           # polytopal stages
        base = [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(M)]
        seq = []
        for k in range(8):
            tail = list(base)
            if k < 5:                          # early terms perturbed
                tail[rng.randrange(M)] += Q(rng.randint(-2, 2), 3)
            seq.append(compatible_from_tail(system, tail))
        rep = invlim_convergence(seq, Q(1, 10**9))
        assert rep.converges
        for j in range(1, M + 1):
            v = rep.stage_limits[j - 1]
            lim_norm = to_float(norm_eval(system.stage(j), v))
            liminf = min(to_float(norm_eval(system.stage(j),
                                            project(cv_k, j)))
                         for cv_k in seq[5:])
            assert lim_norm <= liminf + 1e-9
    elapsed = time.perf_counter() - start
    _report(3, "stage norms nondecreasing on 500 vectors; limit norm lower "
               "semicontinuous on 50 sequences", elapsed)


# ---------------------------------------------------------------------------
# 4. Pairing isometry

def test_criterion_4_pairing_isometry():
    start = time.perf_counter()
    rng = random.Random(404)
    done = 0
    sys_idx = 0
    while done < 100:
        system = random_quotient_system(sys_idx, 5)
        sys_idx += 1
        top_dim = system.stage(5).dim
        for _ in range(10):
            tail = [Q(rng.randint(-5, 5), rng.randint(1, 3))
                    for _ in range(top_dim)]
            if all(v == 0 for v in tail):
                continue
            cv = compatible_from_tail(system, tail)
            verdict = pairing_isometry_check(cv)
            assert verdict.verdict
            phi = verdict.attaining_phi
            assert pairing(cv, 5, phi) == verdict.attained
            assert verdict.attained == stage_norms(cv).norms[-1]
            done += 1
            if done == 100:
                break
    elapsed = time.perf_counter() - start
    _report(4, "pairing attains the top-stage norm via a dual vertex on "
               "100 random vectors", elapsed)


# ---------------------------------------------------------------------------
# 5. Canonical sup-norm obstruction counterexample

def test_criterion_5_canonical_counterexample():
    start = time.perf_counter()
    q = dt.prefix_obstruction_query(10, eps=Q(1, 2))
    rep = dt.eps_determining_search(q)
    assert rep.kind == "counterexample"
    cx = rep.counterexample
    assert cx.violation >= Q(9, 10)
    again = dt.verify_pair(q, cx.a, cx.a_prime)
    assert again is not None and again.violation == cx.violation
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    _report(5, "canonical obstruction query (N=10, eps=1/2) yields a "
               f"re-verified counterexample, violation {to_float(cx.violation):.3f}",
            elapsed)


# ---------------------------------------------------------------------------
# 6. ANP/DP verdict agreement

def test_criterion_6_anp_dp_agreement():
    start = time.perf_counter()
    rng = random.Random(606)
    M, K = 20, 15
    tol = Q(1, 10**6)
    system = l1_drop_system(M)
    for trial in range(100):
        base = [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(M)]
        stab = rng.randint(4, 10)          # index from which terms settle
        seq = []
        for k in range(K):
            tail = list(base)
            if k < stab:
                tail[rng.randrange(M)] += Q(rng.randint(-3, 3), 2)
            elif rng.random() < 0.5:       # sub-tolerance wobble
                tail[rng.randrange(M)] += Q(rng.choice([-1, 1]),
                                            10**9 + rng.randint(0, 7))
            seq.append(compatible_from_tail(system, tail))
        dp = dt.dp_diagnostic(seq, tol)
        anp = dt.anp_diagnostic(seq, tol)
        assert anp.weak_star_convergent
        assert dp.uniform_within_tol == anp.norm_converges
    elapsed = time.perf_counter() - start
    _report(6, "DP and ANP verdicts agree on 100 random stagewise-"
               "convergent sequences (M=20, K=15, tol=1e-6)", elapsed)


# ---------------------------------------------------------------------------
# 7. Differentiability dichotomy

def test_criterion_7_curve_dichotomy():
    start = time.perf_counter()
    grid = cu.canonical_grid(100)
    l1_curve = cu.canonical_l1_curve()
    c0_curve = cu.canonical_c0_curve()
    rep1 = cu.differentiability_scan(l1_curve, grid, range(4, 15))
    rep0 = cu.differentiability_scan(c0_curve, grid, range(4, 17))
    assert set(rep1.classifications) == {"decaying"}
    assert set(rep0.classifications) == {"obstructed"}
    for i, row in enumerate(rep1.gaps):
        for j in range(len(row) - 1):
            assert row[j + 1] / row[j] <= 0.6
        for j, m in enumerate(rep1.ms):
            oracle = cu.coordinate_gap_oracle(l1_curve, rep1.ts[i], m, 20)
            assert abs(row[j] - oracle) <= 1e-9
    for i, row in enumerate(rep0.gaps):
        assert min(row) >= 0.3
        for j, m in enumerate(rep0.ms):
            oracle = cu.coordinate_gap_oracle(c0_curve, rep0.ts[i], m, 20)
            assert abs(row[j] - oracle) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(7, "summable curve decaying (ratio <= 0.6), sup-norm curve "
               "obstructed (floor 0.3), oracle match 1e-9", elapsed)


# ---------------------------------------------------------------------------
# 8. Certification stability under delta refinement

def _random_injective_tail(rng, M):
    while True:
        tail = [[Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2))]
                for _ in range(M)]
        if linalg.rank(tail) == 2:
            return tail


def _violation_estimate(q, rng, samples=2000):
    """Float sweep for the largest violation over pairs satisfying the
    tail and proximity constraints (0 if none seen).  Partners are sampled
    close to the base point, since the proximity constraint confines
    feasible pairs to a thin neighborhood of the diagonal."""
    import numpy as np
    fq = dt._FloatQuery(q)
    norms = {i: dt._FloatNorms([q.system.stage(i)]) for i in fq.stages}

    def norm(i, v):
        return norms[i](v)[..., 0]
    best = 0.0
    for _ in range(samples):
        a = np.array([rng.uniform(-1, 1) for _ in range(2)])
        scale = rng.choice([0.01, 0.05, 0.2, 1.0])
        b = a + scale * np.array([rng.uniform(-1, 1) for _ in range(2)])
        va = {i: fq.G[i] @ a for i in fq.stages}
        vb = {i: fq.G[i] @ b for i in fq.stages}
        s = max(float(norm(fq.M, va[fq.M])), float(norm(fq.M, vb[fq.M])))
        if s < 1e-9:
            continue
        feasible = all(
            float(norm(i, v[i])) > (1 - fq.rho[i - 1]) * n
            for i in range(1, fq.N + 1)
            for v, n in ((va, float(norm(fq.M, va[fq.M]))),
                         (vb, float(norm(fq.M, vb[fq.M])))))
        if not feasible:
            continue
        if float(norm(fq.N, va[fq.N] - vb[fq.N])) >= s / fq.N:
            continue
        best = max(best, float(norm(fq.M, va[fq.M] - vb[fq.M])) / s)
    return best


def test_criterion_8_certification_stability():
    start = time.perf_counter()
    rng = random.Random(808)
    done = 0
    while done < 20:
        M = rng.randint(4, 6)
        builder = rng.choice([l1_drop_system, linf_drop_system])
        system = builder(M)
        gen = generator_from_tail(system, _random_injective_tail(rng, M))
        n = rng.randint(1, 2)
        rho = dt.RhoSchedule(tuple(sorted(
            [Q(rng.randint(1, 6), 12) for _ in range(n)], reverse=True)))
        # Probe the violation landscape, then place eps decisively off the
        # boundary (no terminating grid method has stable verdicts exactly
        # at the boundary).
        probe = dt.DeterminingQuery(system, gen, rho, Q(1, 8), M)
        v_est = _violation_estimate(probe, rng)
        if done % 2 == 0 and v_est > 0.2:
            eps = Q(round(v_est * 16), 32)           # ~ v_est / 2
        else:
            eps = min(Q(2), Q(math.ceil(v_est * 24), 12) + Q(1, 3))
        reps = []
        for delta in (Q(1, 8), Q(1, 16)):
            query = dt.DeterminingQuery(
                system, gen, rho, eps, M,
                certify=dt.CertifyConfig(delta=delta, refine_rounds=2))
            rep = dt.eps_determining_certify(query)
            if rep.counterexample is not None:
                assert dt.verify_pair(query, rep.counterexample.a,
                                      rep.counterexample.a_prime) is not None
            reps.append(rep)
        if reps[0].kind == "undecided":
            continue        # no verdict at the coarse grid: redraw
        assert reps[0].kind == reps[1].kind, (
            f"verdict flipped {reps[0].kind} -> {reps[1].kind} "
            f"(M={M}, eps={eps}, rho={rho.values})")
        done += 1
    elapsed = time.perf_counter() - start
    _report(8, "verdicts of 20 random d=2 queries unchanged under "
               "delta -> delta/2; all counterexamples re-verified", elapsed)


# ---------------------------------------------------------------------------
# 9. Quotient-restriction flip via the rescaled image presentation

def test_criterion_9_rescaled_image_flip():
    start = time.perf_counter()
    system = linf_drop_system(3)
    gen = SubspaceGenerator(system, [
        [[ONE, ZERO]],
        [[ONE, ZERO], [ZERO, ONE]],
        [[ONE, ZERO], [ZERO, ONE], [ONE, ONE]]])
    query = dt.DeterminingQuery(
        system, gen, dt.RhoSchedule((Q(1, 2), Q(1, 2))), Q(1, 4), 3,
        certify=dt.CertifyConfig(delta=Q(1, 10)))
    original = dt.gfda_check(system, gen, 3, query)
    assert not original.stage_verdicts[1].verdict   # stage-2 not a quotient

    rsys, rgen = dt.rescaled_image_presentation(system, gen)
    rquery = dt.DeterminingQuery(
        rsys, rgen, dt.RhoSchedule((Q(1, 2), Q(1, 2))), Q(1, 4), 3,
        certify=dt.CertifyConfig(delta=Q(1, 10)))
    rescaled = dt.gfda_check(rsys, rgen, 3, rquery)
    assert all(v.verdict for v in rescaled.stage_verdicts)
    assert rescaled.certify.kind == "counterexample"
    cx = rescaled.certify.counterexample
    assert dt.verify_pair(rquery, cx.a, cx.a_prime) is not None
    elapsed = time.perf_counter() - start
    _report(9, "rescaling flips the failing quotient verdict to pass and "
               "the determining check to a counterexample", elapsed)

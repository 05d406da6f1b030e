"""The scaled form of linalg: integer numerators over one positive
denominator, and the exact rationals built back from it; the integer
elimination against Gauss-Jordan over the rationals."""

import math
import random
from fractions import Fraction

import pytest

from banachlim import linalg
from banachlim.scalar import Q, ZERO, ONE
from banachlim.space import (hpoly_space, hull_gauge, lp_space, norm_eval,
                             norm_eval_sq, vpoly_space)
from banachlim.systems import generator_from_tail, l1_drop_system

from oracles import (halfspace_polytope_reference, inverse_reference,
                     lower_enumeration_caps, nullspace_reference,
                     random_spanning_vectors, rank_reference, rref_reference,
                     solve_reference, unscaled_vertices)


def _random_vector(rng, n, den):
    return tuple(Q(rng.randint(-den, den), rng.randint(1, den))
                 for _ in range(n))


def test_round_trip_to_rationals():
    rng = random.Random(5)
    for n in range(1, 7):
        for den in (1, 7, 10**6):
            x = _random_vector(rng, n, den)
            nums, c = linalg.scaled(x)
            assert c > 0 and all(type(v) is int for v in nums)
            # The denominator is the lcm of the entries' denominators.
            assert c == math.lcm(*(v.denominator for v in x))
            back = linalg.unscale(nums, c)
            assert back == x and all(type(v) is Fraction for v in back)


def test_zero_empty_and_negative_vectors():
    assert linalg.scaled(()) == ((), 1)
    assert linalg.unscale((), 1) == ()
    assert linalg.scaled((ZERO, ZERO)) == ((0, 0), 1)
    assert linalg.scaled((Q(-1, 2), Q(1, 3), Q(-5))) == ((-3, 2, -30), 6)
    back = linalg.unscale((-3, 0), 6)
    assert back == (Q(-1, 2), ZERO) and all(type(v) is Fraction for v in back)
    # Ints are rationals with denominator 1.
    assert linalg.scaled((2, -3)) == ((2, -3), 1)


def test_scaled_rows_share_one_denominator():
    rows = ((Q(1, 2), Q(-1, 3)), (), (Q(5, 4),))
    ints, c = linalg.scaled_rows(rows)
    assert c == 12 and ints == ((6, -4), (), (15,))
    assert tuple(linalg.unscale(r, c) for r in ints) == rows
    assert linalg.scaled_rows(()) == ((), 1)


class _Ratio:
    """Numerator and denominator only, as a rational exposes them: no
    rational arithmetic at all."""

    def __init__(self, num, den):
        self.numerator, self.denominator = num, den


def test_scaled_form_reads_only_numerators_and_denominators():
    nums, c = linalg.scaled([_Ratio(1, 4), _Ratio(-5, 6), _Ratio(3, 1)])
    assert (nums, c) == ((3, -10, 36), 12)


def test_generator_stage_matrices_scale_together():
    system = l1_drop_system(4)
    gen = generator_from_tail(system, [[Q(1, 2), ONE], [Q(-2, 3), ZERO],
                                       [ZERO, Q(3, 4)], [ONE, ONE]])
    den, mats = gen.scaled
    assert den == 12
    assert tuple(tuple(linalg.unscale(r, den) for r in m)
                 for m in mats) == gen.matrices


def _spaces():
    rng = random.Random(9)
    for p in ("1", "2", "inf"):
        yield lp_space(p, dim=3)
        yield lp_space(p, weights=(Q(1, 2), Q(3), Q(5, 7)))
    for d in (2, 3, 4, 5):
        rows = [[ONE if j == i else ZERO for j in range(d)] for i in range(d)]
        rows.append([Q(rng.randint(-3, 3), 2) for _ in range(d)])
        yield hpoly_space(rows)
        yield vpoly_space(rows)


def test_norm_eval_returns_a_rational_on_every_spec_kind():
    # Integer data (zero vectors, integer entries) still give a backend
    # rational, never an int.
    rng = random.Random(3)
    for sp in _spaces():
        for x in ((ZERO,) * sp.dim, (1,) * sp.dim,
                  _random_vector(rng, sp.dim, 10**6)):
            assert type(norm_eval(sp, x)) is Fraction
            assert type(norm_eval_sq(sp, x)) is Fraction
            assert norm_eval(sp, x) >= 0


def test_gauges_above_the_facet_dimension_are_rational(monkeypatch):
    # The LP branch of a V-polytope gauge, and a one-off hull gauge.
    lower_enumeration_caps(monkeypatch, 1)
    sp = vpoly_space([[ONE, ZERO, Q(1, 2)], [ZERO, ONE, ZERO],
                      [ZERO, ZERO, Q(2)]])
    # Three generators span: the gauge is the l1 norm of the coordinates
    # (1/3, -2, 23/84) of x in them.
    x = (Q(1, 3), Q(-2), Q(5, 7))
    value = norm_eval(sp, x)
    assert type(value) is Fraction and value == Q(73, 28)
    gauge = hull_gauge(sp.spec.vertices, 3)
    assert type(gauge(x)) is Fraction and gauge(x) == value


@pytest.mark.parametrize("p", ["1", "2", "inf"])
def test_lp_norms_match_their_definitions(p):
    rng = random.Random(int(p == "2") + 2 * int(p == "inf"))
    w = (Q(1, 2), Q(3), Q(5, 7), ONE)
    sp = lp_space(p, weights=w)
    for _ in range(50):
        x = _random_vector(rng, 4, 1000)
        terms = [abs(a * b) for a, b in zip(w, x)]
        if p == "2":
            assert norm_eval_sq(sp, x) == sum(t * t for t in terms)
        else:
            assert norm_eval(sp, x) == (sum(terms) if p == "1"
                                        else max(terms))
    assert sp.scaled_norm[1] == (14 ** 2 if p == "2" else 14)


def _random_entry(rng, den):
    """An int, or a rational with denominator up to den, often zero."""
    if rng.random() < 0.3:
        return 0
    if rng.random() < 0.4:
        return rng.randint(-9, 9)
    return Q(rng.randint(-den, den), rng.randint(1, den))


def _random_matrix(rng, m, n, den):
    """m x n, with zero, repeated and scaled rows mixed in."""
    rows = []
    for _ in range(m):
        roll = rng.random()
        if rows and roll < 0.15:
            rows.append(rng.choice(rows))
        elif rows and roll < 0.3:
            t = Q(rng.choice((-1, 1)) * rng.randint(1, den), rng.randint(1, 9))
            rows.append(tuple(t * v for v in rng.choice(rows)))
        elif roll < 0.4:
            rows.append((0,) * n)
        else:
            rows.append(tuple(_random_entry(rng, den) for _ in range(n)))
    return rows


def _assert_elimination_matches(A, n):
    want_rows, want_piv = rref_reference(A, n)
    rows, pivots = linalg._rref(A, n)
    assert pivots == want_piv
    # Pivot rows normalised by their pivots are the reference's; every row
    # has its zero pattern.
    assert [tuple(Q(v, row[c]) for v in row) for row, c in
            zip(rows, pivots)] == [tuple(r) for r in want_rows[:len(pivots)]]
    assert [[v != 0 for v in row] for row in rows] == \
        [[v != 0 for v in row] for row in want_rows]


def test_integer_elimination_matches_the_fraction_reference():
    rng = random.Random(17)
    for m in range(7):
        for n in range(8):
            for den in (1, 10, 10**6):
                for _ in range(3):
                    A = _random_matrix(rng, m, n, den)
                    _assert_elimination_matches(A, n)
                    assert linalg.rank(A) == rank_reference(A)
                    assert linalg.column_space_basis(A) == \
                        rref_reference(A, n if m else 0)[1]
                    assert linalg.nullspace(A) == nullspace_reference(A)
                    # A consistent right side, a random one, and (when A
                    # has rank below m) an inconsistent one: plus a vector
                    # of the left kernel, orthogonal to the column space.
                    x = tuple(_random_entry(rng, den) for _ in range(n))
                    b = linalg.mat_vec(A, x)
                    sides = [b, tuple(_random_entry(rng, den)
                                      for _ in range(m))]
                    if linalg.rank(A) < m:
                        y = nullspace_reference(linalg.transpose(A))[0] \
                            if n else (ONE,) * m
                        assert linalg.solve(A, linalg.vec_add(b, y)) is None
                        sides.append(linalg.vec_add(b, y))
                    for b in sides:
                        aug = [tuple(a) + (bi,) for a, bi in zip(A, b)]
                        _assert_elimination_matches(aug, n)
                        got = linalg.solve(A, b)
                        assert got == solve_reference(A, b)
                        if got is not None:
                            assert linalg.mat_vec(A, got) == linalg.vec(b)
                    if m == n:
                        try:
                            want = inverse_reference(A)
                        except ValueError:
                            with pytest.raises(ValueError):
                                linalg.inverse(A)
                        else:
                            assert linalg.inverse(A) == want


def test_elimination_with_negative_pivots_and_dependent_rows():
    A = [(-2, Q(1, 3), 4), (Q(-4), Q(2, 3), 8), (0, Q(-5, 7), 1)]
    _assert_elimination_matches(A, 3)
    assert linalg.rank(A) == 2 and linalg.column_space_basis(A) == [0, 1]
    assert linalg.solve(A, (1, 3, 0)) is None
    assert linalg.solve(A, (1, 2, 0)) == solve_reference(A, (1, 2, 0))
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse(A)
    B = [(-3, 1), (Q(1, 10**6), Q(-7, 999983))]
    assert linalg.inverse(B) == inverse_reference(B)
    assert all(type(v) is Fraction for r in linalg.inverse(B) for v in r)
    assert all(type(v) is Fraction for v in linalg.solve(B, (1, 0)))
    assert linalg.nullspace(A) == nullspace_reference(A)


def test_elimination_reads_only_numerators_and_denominators():
    # Mixed int and rational rows, as systems.py and the tests pass them,
    # and entries that expose nothing but .numerator and .denominator.
    rng = random.Random(23)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = _random_matrix(rng, m, n, 1000)
        opaque = [tuple(_Ratio(Q(v).numerator, Q(v).denominator) for v in r)
                  for r in A]
        assert linalg.rank(opaque) == rank_reference(A)
        assert linalg.column_space_basis(opaque) == rref_reference(A, n)[1]
        assert linalg.nullspace(opaque) == nullspace_reference(A)
        b = tuple(_random_entry(rng, 1000) for _ in range(m))
        assert linalg.solve(opaque, [_Ratio(Q(v).numerator, Q(v).denominator)
                                     for v in b]) == solve_reference(A, b)
        if m == n:
            try:
                want = inverse_reference(A)
            except ValueError:
                with pytest.raises(ValueError):
                    linalg.inverse(opaque)
            else:
                assert linalg.inverse(opaque) == want


def test_enumeration_reads_only_numerators_and_denominators():
    # The integer vertex enumeration on halfspaces whose entries expose only
    # .numerator and .denominator lists the reference's vertices, in order.
    rng = random.Random(29)
    for dim in (1, 2, 3, 4):
        for _ in range(5):
            rows = [tuple(rng.choice((int(v), Q(int(v), rng.randint(
                1, 10**6)))) for v in r) for r in random_spanning_vectors(
                    rng, dim, dim + rng.randint(0, 3), den=1)]
            halfspaces = [r for f in rows
                          for r in (f, tuple(-v for v in f))]
            opaque = [tuple(_Ratio(Q(v).numerator, Q(v).denominator)
                            for v in r) for r in halfspaces]
            assert unscaled_vertices(opaque, dim) == \
                halfspace_polytope_reference(halfspaces, dim)


def test_is_psd_at_a_zero_pivot():
    """A zero pivot is PSD only with a zero row."""
    assert not linalg.is_psd([[ZERO, ONE], [ONE, ZERO]])
    assert linalg.is_psd([[ZERO, ZERO], [ZERO, ONE]])

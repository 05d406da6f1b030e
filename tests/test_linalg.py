"""The scaled form of linalg: integer numerators over one positive
denominator, and the exact rationals built back from it."""

import math
import random

import pytest

from banachlim import linalg
from banachlim.scalar import Q, RAT, ZERO, ONE
from banachlim.space import (hpoly_space, hull_gauge, lp_space, norm_eval,
                             norm_eval_sq, vpoly_space)
from banachlim.systems import generator_from_tail, l1_drop_system

from oracles import lower_enumeration_caps


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
            assert back == x and all(type(v) is RAT for v in back)


def test_zero_empty_and_negative_vectors():
    assert linalg.scaled(()) == ((), 1)
    assert linalg.unscale((), 1) == ()
    assert linalg.scaled((ZERO, ZERO)) == ((0, 0), 1)
    assert linalg.scaled((Q(-1, 2), Q(1, 3), Q(-5))) == ((-3, 2, -30), 6)
    back = linalg.unscale((-3, 0), 6)
    assert back == (Q(-1, 2), ZERO) and all(type(v) is RAT for v in back)
    # Ints are rationals with denominator 1.
    assert linalg.scaled((2, -3)) == ((2, -3), 1)


def test_scaled_rows_share_one_denominator():
    rows = ((Q(1, 2), Q(-1, 3)), (), (Q(5, 4),))
    ints, c = linalg.scaled_rows(rows)
    assert c == 12 and ints == ((6, -4), (), (15,))
    assert tuple(linalg.unscale(r, c) for r in ints) == rows
    assert linalg.scaled_rows(()) == ((), 1)


class _Ratio:
    """Numerator and denominator only, as a backend rational exposes them
    (gmpy2 mpq gives mpz ones): no rational arithmetic at all."""

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
            assert type(norm_eval(sp, x)) is RAT
            assert type(norm_eval_sq(sp, x)) is RAT
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
    assert type(value) is RAT and value == Q(73, 28)
    gauge = hull_gauge(sp.spec.vertices, 3)
    assert type(gauge(x)) is RAT and gauge(x) == value


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

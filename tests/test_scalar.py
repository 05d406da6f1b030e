import random
import sys
from fractions import Fraction

import pytest

from banachlim.scalar import (Q, format_scalar, parse_scalar, require_int,
                              sqrt_bracket)

_REL = Q(1, 2**50)


def _assert_bracket(q):
    lo, hi = sqrt_bracket(q)
    assert lo * lo <= q <= hi * hi
    assert hi - lo <= _REL * max(hi, 1)


@pytest.mark.parametrize("exponent", [400, -400, 650, -650, 700, -700])
@pytest.mark.parametrize("mantissa", ["1", "3", "22/7", "999999/1000"])
def test_sqrt_bracket_outside_the_float_range(exponent, mantissa):
    _assert_bracket(Q(Fraction(mantissa)) * Q(10) ** exponent)


def test_sqrt_bracket_holds_its_contract_in_range():
    rng = random.Random(14)
    for _ in range(500):
        num = rng.randint(1, 10 ** rng.randint(1, 30))
        _assert_bracket(Q(num, rng.randint(1, 10 ** rng.randint(1, 30))))
    for q in (Q(1), Q(4), Q(1, 4), Q(2), Q(10**40), Q(1, 10**40)):
        _assert_bracket(q)
    assert sqrt_bracket(Q(0)) == (0, 0)
    assert sqrt_bracket(Q(9, 4)) == (Q(3, 2), Q(3, 2))
    with pytest.raises(ValueError):
        sqrt_bracket(Q(-1))


@pytest.mark.parametrize("value, least", [
    (2.7, None), (True, None), (False, 0), ("3", None), (None, None),
    (0, 1), (-1, 0)])
def test_require_int_refuses(value, least):
    with pytest.raises(ValueError) as info:
        require_int(value, "job n", least)
    bound = "" if least is None else f" >= {least}"
    assert str(info.value) == f"job n must be an int{bound}"


def test_require_int_passes_ints_through():
    assert require_int(-5, "seed") == -5
    assert require_int(3, "n", 1) == 3
    assert require_int(0, "dim", 0) == 0


def test_decimal_exponents_stop_at_the_digit_limit():
    # A decimal is built only if str() can print its integers: at most
    # limit digits, counting the mantissa's characters and the exponent.
    limit = sys.get_int_max_str_digits()
    for text in (f"1e{limit - 1}", f"-1e-{limit - 2}", f"0.5e-{limit - 3}"):
        assert parse_scalar(format_scalar(parse_scalar(text))) == Q(text)
    for text in (f"1e{limit}", f"1E-{limit}", f"12.5e+{limit - 3}"):
        with pytest.raises(ValueError, match=f"has over {limit} digits"):
            parse_scalar(text)

"""Exact rational scalars.

All norm values, matrix entries and LP pivots in this package are exact
rationals.  gmpy2.mpq is used when available (roughly an order of magnitude
faster than fractions.Fraction); the stdlib Fraction is the fallback.  Floats
appear only as advisory shadows and in the derivative-free search fast paths.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq

    def Q(a=0, b=None):
        if b is None:
            if isinstance(a, float):
                a = Fraction(a)
            return _mpq(a)
        return _mpq(a, b)

    RAT_TYPES = (type(_mpq(0)), Fraction, int)
except ImportError:
    def Q(a=0, b=None):
        if b is None:
            return Fraction(a)
        return Fraction(a, b)

    RAT_TYPES = (Fraction, int)

ZERO = Q(0)
ONE = Q(1)
RAT = type(ONE)      # the backend rational type


def parse_scalar(s):
    """Parse 'p/q', integer, or decimal strings into an exact rational."""
    if isinstance(s, RAT_TYPES):
        return Q(s)
    if isinstance(s, float):
        raise TypeError("refusing to parse a float as an exact scalar; "
                        "pass a string or rational")
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Q(int(num), int(den))
    if "." in s or "e" in s or "E" in s:
        return Q(Fraction(s))
    return Q(int(s))


def format_scalar(q) -> str:
    """Serialize a rational as 'p' or 'p/q' (exact round trip)."""
    q = Q(q)
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(num)
    return f"{num}/{den}"


def to_float(q) -> float:
    return float(Fraction(int(Q(q).numerator), int(Q(q).denominator)))


def from_float(x: float):
    """Exact rational equal to the binary float x."""
    return Q(Fraction(x))


def rationalize(x: float, max_den: int = 10**6):
    """Nearby small-denominator rational (used to promote search iterates)."""
    return Q(Fraction(x).limit_denominator(max_den))


def sqrt_bracket(q, rel=Q(1, 2**50)):
    """Exact two-sided bracket (lo, hi) for sqrt(q), q >= 0 rational.

    lo*lo <= q <= hi*hi and hi - lo <= rel * max(hi, 1).
    """
    q = Q(q)
    if q < 0:
        raise ValueError("sqrt of negative scalar")
    if q == 0:
        return ZERO, ZERO
    import math

    x = math.sqrt(to_float(q)) or 1.0
    lo = from_float(x)
    if lo * lo > q:
        lo = q / lo  # now lo*lo <= q by AM-GM direction
    hi = q / lo if lo > 0 else q + 1
    if hi * hi < q:
        lo, hi = hi, lo
    # Newton refinement on the upper bound; lo tracks via q/hi.
    while hi - lo > rel * max(hi, ONE):
        hi = (hi + q / hi) / 2
        lo = q / hi
    return lo, hi


def sqrt_approx(q):
    """Rational approximation of sqrt(q), relative error < 2^-49."""
    lo, hi = sqrt_bracket(q)
    return (lo + hi) / 2

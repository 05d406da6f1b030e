"""Exact rational scalars.

All norm values, matrix entries and LP pivots in this package are exact
rationals of one type, the stdlib fractions.Fraction, named Q here.
Floats appear only as advisory shadows and in the derivative-free search
fast paths.
"""

from __future__ import annotations

import math
from fractions import Fraction

Q = Fraction
ZERO = Q(0)
ONE = Q(1)


def parse_scalar(s):
    """Parse 'p/q', integer, or decimal strings into an exact rational."""
    if isinstance(s, (bool, float)):
        raise TypeError(f"refusing to parse a {type(s).__name__} as an "
                        "exact scalar; pass a string or rational")
    if isinstance(s, (Fraction, int)):
        return Q(s)
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Q(int(num), int(den))
    if "." in s or "e" in s or "E" in s:
        return Q(s)
    return Q(int(s))


def require_int(v, what, least=None):
    """v, if an int (never a bool, nor a 2.7 coerced) >= least when given."""
    if (isinstance(v, bool) or not isinstance(v, int)
            or least is not None and v < least):
        raise ValueError(f"{what} must be an int"
                         + ("" if least is None else f" >= {least}"))
    return v


def require_type(v, kind, what):
    """v, if a JSON value of exactly the type kind: str or bool."""
    if type(v) is not kind:
        raise ValueError(f"{what} must be a JSON "
                         + ("string" if kind is str else "bool"))
    return v


def format_scalar(q) -> str:
    """Serialize a rational as 'p' or 'p/q' (exact round trip)."""
    return str(Q(q))


def to_float(q) -> float:
    # Fraction.__float__ is numerator / denominator, correctly rounded.
    return float(Q(q))


def from_float(x: float):
    """Exact rational equal to the binary float x."""
    return Q(x)


def rationalize(x: float, max_den: int = 10**6):
    """Nearby small-denominator rational (used to promote search iterates)."""
    return Q(x).limit_denominator(max_den)


def sqrt_bracket(q):
    """Exact two-sided bracket (lo, hi) for sqrt(q), q >= 0 rational.

    lo*lo <= q <= hi*hi and hi - lo <= 2^-50 * max(hi, 1), for every q:
    q is scaled by a power of 4 into [1/2, 4) for the float square root
    (exact in binary), and the bracket is scaled back by the power of 2.
    """
    q = Q(q)
    if q < 0:
        raise ValueError("sqrt of negative scalar")
    if q == 0:
        return ZERO, ZERO
    k = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    scale = Q(2) ** k
    q = q / (scale * scale)
    lo = from_float(math.sqrt(to_float(q)))
    if lo * lo > q:
        lo = q / lo  # now lo*lo <= q by AM-GM direction
    return lo * scale, q / lo * scale


def sqrt_approx(q):
    """Rational approximation of sqrt(q), relative error < 2^-49."""
    lo, hi = sqrt_bracket(q)
    return (lo + hi) / 2

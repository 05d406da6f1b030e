"""Exact rational scalars.

All norm values, matrix entries and LP pivots in this package are exact
rationals of one type, the stdlib fractions.Fraction, named Q here.
Floats appear only as advisory shadows and in the derivative-free search
fast paths.
"""

from __future__ import annotations

import dataclasses
import math
import re
import sys
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
        # Refused unbuilt if its integers pass the digit limit of str().
        mant, _, exp = s.lower().partition("e")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if (limit and re.fullmatch(r"[+-]?\d+", exp)
                and len(mant) + abs(int(exp)) > limit):
            raise ValueError(f"decimal {s!r} has over {limit} digits")
        return Q(s)
    return Q(int(s))


def require_int(v, what, least=None):
    """v, if an int (never a bool, nor a 2.7 coerced) >= least when given."""
    if (isinstance(v, bool) or not isinstance(v, int)
            or least is not None and v < least):
        raise ValueError(f"{what} must be an int"
                         + ("" if least is None else f" >= {least}"))
    return v


def read(value, rule, path="job"):
    """value, checked against a job-field rule and converted; each error
    names path.  A rule is int, str, bool or float (that JSON type; float is
    any number, and a bool is never a number), an int n (an int >= n), Q (an
    exact scalar), [rule] (a list, read as a tuple), {key: rule or (rule,
    default)} (an object: a key without a default is required, and a key
    not listed is refused), a dataclass (the object of its fields, typed by
    their rules), or a function f(value, path)."""
    if rule is int or type(rule) is int:
        return require_int(value, path, None if rule is int else rule)
    if rule is Q and type(value) in (str, int):
        try:
            return parse_scalar(value)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
    if rule in (str, bool, float, Q):
        if type(value) is rule or rule is float and type(value) is int:
            return value
        raise ValueError(f"{path} must be " + {
            str: "a JSON string", bool: "a JSON bool", float: "a JSON number",
            Q: "a 'p/q' or decimal string or a JSON int"}[rule])
    if type(rule) is list:
        if type(value) is not list:
            raise ValueError(f"{path} must be a list")
        return tuple(read(v, rule[0], f"{path}[{i}]")
                     for i, v in enumerate(value))
    if type(rule) is not dict and not dataclasses.is_dataclass(rule):
        return rule(value, path)
    table = rule if type(rule) is dict else {
        f.name: (f.type, f.default) for f in dataclasses.fields(rule)}
    if type(value) is not dict:
        raise ValueError(f"{path} must be a JSON object")
    unknown = sorted(set(value) - set(table))
    if unknown:
        raise ValueError(f"unknown key in {path}: {', '.join(unknown)} "
                         f"(allowed: {', '.join(sorted(table))})")
    out = {}
    for key, entry in table.items():
        sub, *default = entry if type(entry) is tuple else (entry,)
        if key not in value and not default:
            raise ValueError(f"{path}.{key} is required")
        out[key] = (read(value[key], sub, f"{path}.{key}") if key in value
                    else default[0])
    return out if type(rule) is dict else rule(**out)


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

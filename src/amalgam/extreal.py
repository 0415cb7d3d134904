"""Extended-real exponent arithmetic in exact rationals.

Exponents of the mixed-norm spaces live in [1, inf].  All admissibility
conditions are affine in the reciprocals 1/p (with 1/inf = 0), so the
canonical internal representation is a Fraction reciprocal; every verdict
reached through these helpers is exact.

Floats are converted through ``str`` so that human-entered decimals like
0.3 become 3/10 rather than the nearest binary double.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

INF = math.inf

ExtReal = object  # Fraction or math.inf; informal alias


def as_extended(x) -> ExtReal:
    """Coerce x to a Fraction or inf.  Accepts 'inf', '10/3', floats, ints."""
    if isinstance(x, str):
        s = x.strip().lower()
        if s in ("inf", "infinity", "oo"):
            return INF
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"exponent {x!r} has a zero denominator") from None
        except ValueError:
            raise ValueError(f"exponent {x!r} is not a rational number or inf") from None
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):
        if math.isnan(x) or x == -INF:
            raise ValueError(f"{x} is not a valid exponent")
        return INF if x == INF else Fraction(str(x))
    raise TypeError(f"cannot interpret {x!r} as an extended real")


def as_rational(x) -> Fraction:
    """as_extended for a quantity that must be finite (an order, not an exponent)."""
    val = as_extended(x)
    if val is INF:
        raise ValueError(f"expected a finite value, got {x!r}")
    return val


def recip(x) -> Fraction:
    """1/x with 1/inf = 0, exact."""
    x = as_extended(x)
    if x is INF:
        return Fraction(0)
    if x == 0:
        raise ValueError("an exponent of 0 has no reciprocal; exponents lie in [1, inf]")
    return 1 / x


def from_recip(u) -> ExtReal:
    """Inverse of recip: 0 -> inf."""
    u = Fraction(u)
    if u == 0:
        return INF
    return Fraction(1) / u


def to_float(x) -> float:
    x = as_extended(x)
    if x is INF:
        return INF
    try:
        return float(x)
    except OverflowError:
        raise ValueError("exponent beyond the float64 range; use inf") from None


def fmt(x) -> str:
    """Stable text form: 'inf' or an exact rational."""
    x = as_extended(x)
    if x is INF:
        return "inf"
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

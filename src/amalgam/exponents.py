"""Admissibility regions for mixed-norm space-time estimates, as constraint tables.

Every condition is affine in the reciprocals 1/exponent (1/inf = 0).  A
condition set is one table of clauses over (1, 1/qt, 1/rt, 1/q, 1/r), each
a name, a kind (>=, > or =) and one affine form with exact Fraction
coefficients; a clause's slack is the exact value of its form, so no
verdict depends on floating point.  ``check`` is the one verdict on a
tuple.  A region scan clears denominators, which makes every clause an
integer affine function of the lattice indices, and finds each scan
row's accepted indices by floor division.

An exponent is a Fraction or ``INF``.  Floats are converted through ``str``,
so that human-entered decimals like 0.3 become 3/10 rather than the nearest
binary double.

Condition sets
--------------
classical    : the scale-invariant pair condition for L^q_t L^r_x bounds; at
               n = 2 the clause r < inf excludes the endpoint (2, inf).
cn2          : the interpolated amalgam region with independent local /
               global exponents (local vs decay decoupling).
theorem      : the Sobolev-data amalgam region; strict lower bound on the
               time-local exponent, an equality trading integrability
               against the smoothing order.
proposition  : the two-regime kernel-decay region in (rt, r) for fixed
               smoothing order.
corollary    : the region produced by the theta = 1/2 bilinear
               interpolation with the inner spatial exponent pinned at 4.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from numbers import Rational

__all__ = [
    "CONDITION_SETS",
    "ExponentTuple",
    "ConstraintCheck",
    "RegionReport",
    "RegionScan",
    "constraint_table",
    "evaluate",
    "check",
    "predicted_kernel_decay",
    "sample_region",
]

AXES = ("qt", "rt", "q", "r")
CONDITION_SETS = ("classical", "cn2", "theorem", "proposition", "corollary")
GE, GT, EQ = ">=", ">", "="
INF = math.inf


def as_extended(x):
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


def to_float(x) -> float:
    try:
        return float(as_extended(x))
    except OverflowError:
        raise ValueError("exponent beyond the float64 range; use inf") from None


def fmt(x) -> str:
    """Stable text form: 'inf' or an exact rational ('10' or '10/3')."""
    x = as_extended(x)
    return "inf" if x is INF else str(x)


class ExponentTuple(namedtuple("ExponentTuple", ("n", "sigma") + AXES)):
    """(n, sigma, qt, rt, q, r) with extended-real exponent entries."""

    __slots__ = ()

    def __new__(cls, n, sigma, qt, rt, q, r):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        sigma = as_rational(sigma)
        if sigma < 0:
            raise ValueError(f"smoothing order must be >= 0, got {sigma}")
        exps = [as_extended(x) for x in (qt, rt, q, r)]
        for name, val in zip(AXES, exps):
            if val is not INF and val < 1:
                raise ValueError(f"{name} must lie in [1, inf], got {val}")
        return super().__new__(cls, n, sigma, *exps)

    def reciprocals(self) -> dict:
        return {name: recip(getattr(self, name)) for name in AXES}


class ConstraintCheck(namedtuple("ConstraintCheck", "name passed slack")):
    """One clause at a point; slack is the clause's form there, its margin in reciprocal
    coordinates."""

    __slots__ = ()


class RegionReport:
    """A condition set's clause checks at one point, in order, and its proposition case."""

    def __init__(self, label: str):
        self.label = label
        self.constraints = []
        self.case = None

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.constraints)

    def failed(self) -> list:
        return [c for c in self.constraints if not c.passed]


def _form(const=0, **coef) -> tuple:
    """An affine form: exact coefficients over (1, 1/qt, 1/rt, 1/q, 1/r)."""
    return (Fraction(const),) + tuple(Fraction(coef.get(a, 0)) for a in AXES)


def _row(name: str, kind: str, const=0, **coef) -> tuple:
    return name, kind, _form(const, **coef)


class ConstraintTable(namedtuple("ConstraintTable", "label axes clauses case gate",
                                 defaults=(None, None))):
    """A condition set's clauses (name, kind, form) over the reciprocals ``axes``; the form's
    value is the slack.  ``gate`` leading clauses must all pass before the rest are checked."""

    __slots__ = ()


def _trade_off(n: int, sigma: Fraction) -> tuple:
    """2/q + n/r - (n/2 - sigma - (n-1)/rt); at rt = inf, the classical Sobolev line."""
    return _form(sigma - Fraction(n, 2), rt=n - 1, q=2, r=n)


def constraint_table(condition_set: str, n: int, sigma=0) -> ConstraintTable:
    """The clauses of one condition set at dimension n and smoothing order sigma."""
    if condition_set not in CONDITION_SETS:
        raise ValueError(f"unknown condition set {condition_set!r}; "
                         f"choose from {sorted(CONDITION_SETS)}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    sigma = as_rational(sigma)
    half, h = Fraction(1, 2), Fraction(n, 2)
    r_finite = [_row("r < inf (n = 2)", GT, r=1)] if n == 2 else []
    if condition_set == "classical":
        return ConstraintTable("classical", ("q", "r"), (
            _row("q >= 2", GE, half, q=-1),
            _row("r >= 2", GE, half, r=-1),
            _row("2/q + n/r = n/2", EQ, -h, q=2, r=n),
            *r_finite,
        ))
    if condition_set == "cn2":
        rows = [
            _row("qt >= 1", GE, 1, qt=-1),
            _row("rt >= 1", GE, 1, rt=-1),
            _row("q >= 2", GE, half, q=-1),
            _row("r >= 2", GE, half, r=-1),
            _row("rt <= r", GE, rt=1, r=-1),
            _row("2/q + n/r <= n/2", GE, h, q=-2, r=-n),
            _row("n/2 <= 2/qt + n/rt", GE, -h, qt=2, rt=n),
        ]
        if n == 2:
            rows += [_row("rt < inf (n = 2)", GT, rt=1), *r_finite]
        if n >= 3:
            rows.append(_row("rt <= 2n/(n-2)", GE, -Fraction(n - 2, 2 * n), rt=1))
        return ConstraintTable("cn2", AXES, tuple(rows))
    if condition_set == "theorem":
        return ConstraintTable("theorem", AXES, (
            _row("qt >= 2", GE, half, qt=-1),
            _row("qt < q", GT, qt=1, q=-1),
            _row("q < inf", GT, q=1),
            _row("rt >= 2", GE, half, rt=-1),
            _row("r >= 2", GE, half, r=-1),
            _row("sigma > max(0, (n-2)/4)", GT, sigma - max(0, Fraction(n - 2, 4))),
            _row("sigma < n/2", GT, h - sigma),
            _row("2/qt + (n-1)/rt > n/2 - sigma", GT, sigma - h, qt=2, rt=n - 1),
            ("2/q + n/r = n/2 - sigma - (n-1)/rt", EQ, _trade_off(n, sigma)),
        ))
    if condition_set == "proposition":
        load = {"rt": 1 - n, "r": -n}  # minus (n-1)/rt + n/r
        quarter = Fraction(n, 4)
        if sigma < quarter:
            case, last = "c3", _row("(n-1)/rt + n/r < sigma", GT, sigma, **load)
        elif sigma > quarter:
            case, last = "c4", _row("(n-1)/rt + n/r < n/2 - sigma", GT, h - sigma, **load)
        else:  # both cases are stated inclusively at sigma = n/4, where sigma = n/2 - sigma
            case = "c3|c4"
            last = _row("either strict kernel-decay inequality at sigma = n/4", GT, sigma, **load)
        return ConstraintTable("proposition", ("rt", "r"), (
            _row("rt >= 2", GE, half, rt=-1),
            _row("r >= 2", GE, half, r=-1),
            _row("sigma > 0", GT, sigma),
            _row("sigma < n/2", GT, h - sigma),
            last,
        ), case=case, gate=4)
    rows = [
        _row("rt = 4", EQ, -Fraction(1, 4), rt=1),
        _row("sigma > max(0, (n-2)/8)", GT, sigma - max(0, Fraction(n - 2, 8))),
        _row("sigma < n/4", GT, Fraction(n, 4) - sigma),
        _row("2/q + n/r = n/2 - sigma", EQ, sigma - h, q=2, r=n),
        _row("2/qt > n/4 - sigma", GT, sigma - Fraction(n, 4), qt=2),
        _row("1/q > 0", GT, q=1),
        _row("1/q < 1/qt + 1/4", GT, Fraction(1, 4), qt=1, q=-1),
        _row("1/qt + 1/4 <= 1/2", GE, Fraction(1, 4), qt=-1),
        _row("r >= 2", GE, half, r=-1),
        *r_finite,
    ]
    return ConstraintTable("corollary", AXES, tuple(rows))


_PASSES = {GE: lambda s: s >= 0, GT: lambda s: s > 0, EQ: lambda s: s == 0}


def evaluate(table: ConstraintTable, u: dict) -> RegionReport:
    """Check every clause at the reciprocals u (an absent one is 0, exponent inf).

    A gated table stops after its gate clauses when one of them fails,
    and then reports no case.
    """
    x = (1,) + tuple(u.get(a, 0) for a in AXES)
    rep = RegionReport(label=table.label)
    for k, (name, kind, form) in enumerate(table.clauses):
        if k == table.gate and not rep.verdict:
            return rep
        slack = sum(c * v for c, v in zip(form, x))
        rep.constraints.append(ConstraintCheck(name, _PASSES[kind](slack), slack))
    rep.case = table.case
    return rep


def check(condition_set: str, t: ExponentTuple) -> RegionReport:
    """One condition set's verdict on a tuple, clause by clause with exact slacks."""
    return evaluate(constraint_table(condition_set, t.n, t.sigma), t.reciprocals())


def predicted_kernel_decay(n: int, sigma, rt, r) -> tuple:
    """Exact two-regime decay exponents of the windowed kernel norm.

    Returns (small_time_exponent, large_time_exponent); outside the
    kernel-decay region (check("proposition", ...) rejects) they are formal.
    """
    small = -Fraction(n, 2) + as_rational(sigma) + (n - 1) * recip(rt)
    return small, small + n * recip(r)


class RegionScan(namedtuple("RegionScan", "axes verdicts edge")):
    """Verdicts (bool per point) over the lattice {0, 1/resolution, ..., 1}^d of the free
    reciprocals ``axes``, in row-major order of the index tuples; ``edge`` lists the indices
    of accepted points with a rejected or missing neighbour."""

    __slots__ = ()


def _interval(rows: list, head: tuple, resolution: int) -> tuple:
    """(lo, hi): the range of indices j in [0, resolution] at which every integer
    row c + a . (head, j) is >= 0; (1, 0) if there is none."""
    lo, hi = 0, resolution
    for row in rows:
        c, b = row[0] + sum(a * i for a, i in zip(row[1:], head)), row[-1]
        if b > 0:
            lo = max(lo, -(c // b))  # j >= ceil(-c / b)
        elif b < 0:
            hi = min(hi, c // -b)    # j <= floor(c / -b)
        elif c < 0:
            return 1, 0
    return (lo, hi) if lo <= hi else (1, 0)


def sample_region(condition_set: str, *, n: int, sigma=0, free, resolution: int,
                  fixed: dict | None = None) -> RegionScan:
    """Scan a region exactly over the reciprocals of one or two ``free`` coordinates.

    The others come from ``fixed``, or one is solved from an equality clause
    of the set; a point where it leaves [0, 1] is rejected.  Boundary cells
    (accepted with a rejected or missing scan neighbour) are listed by index.
    """
    table = constraint_table(condition_set, n, sigma)
    free, fixed = tuple(free), dict(fixed or {})
    if not 1 <= len(free) == len(set(free)) <= 2:
        raise ValueError("free must name one or two distinct exponents")
    for name in free + tuple(fixed):
        if name not in table.axes:
            raise ValueError(f"{name!r} is not a coordinate of the {condition_set} region")
        if name in free and name in fixed:
            raise ValueError(f"{name!r} is both free and fixed")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    ExponentTuple(n, sigma, *(fixed.get(a, INF) for a in AXES))  # checks sigma and fixed once
    base = {a: recip(v) for a, v in fixed.items()}
    missing = [a for a in table.axes if a not in free + tuple(fixed)]
    if len(missing) > 1:
        raise ValueError(f"underdetermined scan: missing {missing}")
    clauses, eq = list(table.clauses), None
    if missing:
        (solved,) = missing
        k = 1 + AXES.index(solved)
        eq = next((form for _, kind, form in clauses if kind == EQ and form[k]), None)
        if eq is None:
            raise ValueError(f"the {condition_set} region has no equality to solve {solved} from")
        clauses += [("", GE, _form(**{solved: 1})), ("", GE, _form(1, **{solved: -1}))]

    def rows(form: tuple, kind: str) -> list:
        """The clause as integer rows (c, a_1, ..), each c + a . indices >= 0."""
        if eq is not None:  # eliminate the solved reciprocal along the equality
            form = [f - form[k] / eq[k] * e for f, e in zip(form, eq)]
        coef = dict(zip(AXES, form[1:]))
        g = [resolution * (form[0] + sum(coef[a] * u for a, u in base.items()))]
        g += [coef[f] for f in free]
        scale = math.lcm(*(c.denominator for c in g))
        row = [int(c * scale) for c in g]
        row[0] -= kind == GT  # integer values: > 0 is >= 1
        return [row, [-c for c in row]] if kind == EQ else [row]

    terms = [row for _, kind, form in clauses for row in rows(form, kind)]
    w = resolution + 1
    verdicts = []
    for head in itertools.product(range(w), repeat=len(free) - 1):
        lo, hi = _interval(terms, head, resolution)
        verdicts += [False] * lo + [True] * (hi + 1 - lo) + [False] * (resolution - hi)
    strides = [w ** d for d in range(len(free))]
    edge = [k for k in itertools.compress(range(len(verdicts)), verdicts)
            if not all(0 < k // s % w < resolution and verdicts[k - s] and verdicts[k + s]
                       for s in strides)]
    return RegionScan(free, verdicts, edge)

"""Admissibility predicates for mixed-norm space-time estimates.

Every condition is decided in exact rational arithmetic on the reciprocals
1/exponent (1/inf = 0), in which all the conditions are affine.  Verdicts
therefore never depend on floating point.  Each predicate returns a
RegionReport listing every clause with its pass/fail flag and exact slack.

Condition sets
--------------
classical    : the scale-invariant pair condition for L^q_t L^r_x bounds.
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
from dataclasses import dataclass, field
from fractions import Fraction

from .extreal import INF, as_extended, as_rational, fmt, from_recip, recip

__all__ = [
    "ExponentTuple",
    "ConstraintCheck",
    "RegionReport",
    "RegionScan",
    "is_schrodinger_admissible",
    "satisfies_cn2",
    "satisfies_theorem",
    "satisfies_prop_kernel",
    "satisfies_corollary",
    "predicted_kernel_decay",
    "classical_sobolev_line",
    "sample_region",
]


@dataclass(frozen=True)
class ExponentTuple:
    """(n, sigma, qt, rt, q, r) with extended-real exponent entries."""

    n: int
    sigma: Fraction
    qt: object
    rt: object
    q: object
    r: object

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        object.__setattr__(self, "sigma", as_rational(self.sigma))
        if self.sigma < 0:
            raise ValueError(f"smoothing order must be >= 0, got {self.sigma}")
        for name in ("qt", "rt", "q", "r"):
            val = as_extended(getattr(self, name))
            if val is not INF and val < 1:
                raise ValueError(f"{name} must lie in [1, inf], got {val}")
            object.__setattr__(self, name, val)

    def reciprocals(self) -> dict:
        return {name: recip(getattr(self, name)) for name in ("qt", "rt", "q", "r")}

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "sigma": fmt(self.sigma),
            "qt": fmt(self.qt),
            "rt": fmt(self.rt),
            "q": fmt(self.q),
            "r": fmt(self.r),
        }


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    passed: bool
    slack: Fraction | None = None  # margin in reciprocal coordinates

    def to_json_dict(self) -> dict:
        try:
            approx = None if self.slack is None else float(self.slack)
        except OverflowError:  # an exact slack beyond float64, written as NormResult writes inf
            approx = "inf" if self.slack > 0 else "-inf"
        return {
            "name": self.name,
            "passed": self.passed,
            "slack": None if self.slack is None else fmt(self.slack),
            "slack_float": approx,
        }


@dataclass
class RegionReport:
    label: str
    constraints: list = field(default_factory=list)
    case: str | None = None

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.constraints)

    def failed(self) -> list:
        return [c for c in self.constraints if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "verdict": "accept" if self.verdict else "reject",
            "case": self.case,
            "constraints": [c.to_json_dict() for c in self.constraints],
        }


def _gt(name: str, lhs: Fraction, rhs: Fraction) -> ConstraintCheck:
    return ConstraintCheck(name, lhs > rhs, lhs - rhs)


def _ge(name: str, lhs: Fraction, rhs: Fraction) -> ConstraintCheck:
    return ConstraintCheck(name, lhs >= rhs, lhs - rhs)


def _eq(name: str, lhs: Fraction, rhs: Fraction) -> ConstraintCheck:
    return ConstraintCheck(name, lhs == rhs, lhs - rhs)


def is_schrodinger_admissible(q, r, n: int) -> RegionReport:
    """q, r >= 2, 2/q + n/r = n/2, (q, r, n) != (2, inf, 2)."""
    q, r = as_extended(q), as_extended(r)
    uq, ur = recip(q), recip(r)
    rep = RegionReport(label="classical")
    rep.constraints.append(_ge("q >= 2", Fraction(1, 2), uq))
    rep.constraints.append(_ge("r >= 2", Fraction(1, 2), ur))
    rep.constraints.append(_eq("2/q + n/r = n/2", 2 * uq + n * ur, Fraction(n, 2)))
    endpoint = (uq == Fraction(1, 2) and ur == 0 and n == 2)
    rep.constraints.append(ConstraintCheck("(q, r, n) != (2, inf, 2)", not endpoint))
    return rep


def satisfies_cn2(t: ExponentTuple) -> RegionReport:
    """The interpolated region: local and global exponents decoupled
    except rt <= r, with the endpoint caveats in dimensions 2 and >= 3."""
    u = t.reciprocals()
    n = t.n
    rep = RegionReport(label="cn2")
    rep.constraints.append(_ge("qt >= 1", Fraction(1), u["qt"]))
    rep.constraints.append(_ge("rt >= 1", Fraction(1), u["rt"]))
    rep.constraints.append(_ge("q >= 2", Fraction(1, 2), u["q"]))
    rep.constraints.append(_ge("r >= 2", Fraction(1, 2), u["r"]))
    rep.constraints.append(_ge("rt <= r", u["rt"], u["r"]))
    rep.constraints.append(_ge("2/q + n/r <= n/2", Fraction(n, 2), 2 * u["q"] + n * u["r"]))
    rep.constraints.append(_ge("n/2 <= 2/qt + n/rt", 2 * u["qt"] + n * u["rt"], Fraction(n, 2)))
    if n == 2:
        rep.constraints.append(_gt("rt < inf (n = 2)", u["rt"], Fraction(0)))
        rep.constraints.append(_gt("r < inf (n = 2)", u["r"], Fraction(0)))
    if n >= 3:
        rep.constraints.append(_ge("rt <= 2n/(n-2)", u["rt"], Fraction(n - 2, 2 * n)))
    return rep


def satisfies_theorem(t: ExponentTuple) -> RegionReport:
    """Sobolev-data amalgam region: exponent ordering, the sigma window,
    the strict time-local lower bound and the trade-off equality."""
    u = t.reciprocals()
    n, sigma = t.n, t.sigma
    rep = RegionReport(label="theorem")
    rep.constraints.append(_ge("qt >= 2", Fraction(1, 2), u["qt"]))
    rep.constraints.append(_gt("qt < q", u["qt"], u["q"]))
    rep.constraints.append(_gt("q < inf", u["q"], Fraction(0)))
    rep.constraints.append(_ge("rt >= 2", Fraction(1, 2), u["rt"]))
    rep.constraints.append(_ge("r >= 2", Fraction(1, 2), u["r"]))
    lo = max(Fraction(0), Fraction(n - 2, 4))
    rep.constraints.append(_gt("sigma > max(0, (n-2)/4)", sigma, lo))
    rep.constraints.append(_gt("sigma < n/2", Fraction(n, 2), sigma))
    rep.constraints.append(_gt(
        "2/qt + (n-1)/rt > n/2 - sigma",
        2 * u["qt"] + (n - 1) * u["rt"],
        Fraction(n, 2) - sigma,
    ))
    rep.constraints.append(_eq(
        "2/q + n/r = n/2 - sigma - (n-1)/rt",
        2 * u["q"] + n * u["r"],
        Fraction(n, 2) - sigma - (n - 1) * u["rt"],
    ))
    return rep


def satisfies_prop_kernel(n: int, sigma, rt, r) -> RegionReport:
    """Two-regime kernel-decay region in (rt, r).

    For sigma <= n/4 the small-order case applies, for sigma >= n/4 the
    large-order case; exactly at n/4 either strict inequality suffices.
    """
    sigma = as_rational(sigma)
    urt, ur = recip(rt), recip(r)
    rep = RegionReport(label="proposition")
    rep.constraints.append(_ge("rt >= 2", Fraction(1, 2), urt))
    rep.constraints.append(_ge("r >= 2", Fraction(1, 2), ur))
    rep.constraints.append(_gt("sigma > 0", sigma, Fraction(0)))
    rep.constraints.append(_gt("sigma < n/2", Fraction(n, 2), sigma))
    if not rep.verdict:
        rep.case = None
        return rep
    load = (n - 1) * urt + n * ur
    quarter = Fraction(n, 4)
    c3 = _gt("(n-1)/rt + n/r < sigma", sigma, load)
    c4 = _gt("(n-1)/rt + n/r < n/2 - sigma", Fraction(n, 2) - sigma, load)
    if sigma < quarter:
        rep.case = "c3"
        rep.constraints.append(c3)
    elif sigma > quarter:
        rep.case = "c4"
        rep.constraints.append(c4)
    else:
        # both cases are stated inclusively at sigma = n/4
        rep.case = "c3|c4"
        rep.constraints.append(ConstraintCheck(
            "either strict kernel-decay inequality at sigma = n/4",
            c3.passed or c4.passed,
            max(c3.slack, c4.slack),
        ))
    return rep


def satisfies_corollary(t: ExponentTuple) -> RegionReport:
    """Bilinear-interpolation region with the inner spatial exponent 4."""
    u = t.reciprocals()
    n, sigma = t.n, t.sigma
    rep = RegionReport(label="corollary")
    rep.constraints.append(_eq("rt = 4", u["rt"], Fraction(1, 4)))
    lo = max(Fraction(0), Fraction(n - 2, 8))
    rep.constraints.append(_gt("sigma > max(0, (n-2)/8)", sigma, lo))
    rep.constraints.append(_gt("sigma < n/4", Fraction(n, 4), sigma))
    rep.constraints.append(_eq(
        "2/q + n/r = n/2 - sigma",
        2 * u["q"] + n * u["r"],
        Fraction(n, 2) - sigma,
    ))
    rep.constraints.append(_gt("2/qt > n/4 - sigma", 2 * u["qt"], Fraction(n, 4) - sigma))
    rep.constraints.append(_gt("1/q > 0", u["q"], Fraction(0)))
    rep.constraints.append(_gt("1/q < 1/qt + 1/4", u["qt"] + Fraction(1, 4), u["q"]))
    rep.constraints.append(_ge("1/qt + 1/4 <= 1/2", Fraction(1, 2), u["qt"] + Fraction(1, 4)))
    rep.constraints.append(_ge("r >= 2", Fraction(1, 2), u["r"]))
    if n == 2:
        rep.constraints.append(_gt("r < inf (n = 2)", u["r"], Fraction(0)))
    return rep


_PREDICATES = {
    "classical": lambda t: is_schrodinger_admissible(t.q, t.r, t.n),
    "cn2": satisfies_cn2,
    "theorem": satisfies_theorem,
    "proposition": lambda t: satisfies_prop_kernel(t.n, t.sigma, t.rt, t.r),
    "corollary": satisfies_corollary,
}


def predicate_for(condition_set: str):
    try:
        return _PREDICATES[condition_set]
    except KeyError:
        raise ValueError(
            f"unknown condition set {condition_set!r}; "
            f"choose from {sorted(_PREDICATES)}") from None


def predicted_kernel_decay(n: int, sigma, rt, r):
    """Exact two-regime decay exponents of the windowed kernel norm.

    Returns (small_time_exponent, large_time_exponent, extrapolated);
    ``extrapolated`` is True when (n, sigma, rt, r) lies outside the
    kernel-decay region, in which case the exponents are formal.
    """
    sigma = as_rational(sigma)
    urt, ur = recip(rt), recip(r)
    small = -Fraction(n, 2) + sigma + (n - 1) * urt
    large = small + n * ur
    inside = satisfies_prop_kernel(n, sigma, rt, r).verdict
    return small, large, (not inside)


def classical_sobolev_line(n: int, sigma, q):
    """Solve 2/q + n/r = n/2 - sigma for r (possibly inf).

    Raises when no admissible r >= 2 exists, naming the violated bound.
    """
    sigma = as_rational(sigma)
    if not (0 < sigma < Fraction(n, 2)):
        raise ValueError(f"sigma must lie in (0, n/2), got {sigma}")
    uq = recip(q)
    if uq > Fraction(1, 2):
        raise ValueError(f"q must be >= 2, got {as_extended(q)}")
    ur = (Fraction(n, 2) - sigma - 2 * uq) / n
    if ur < 0:
        raise ValueError(
            f"no admissible r: 2/q + sigma exceeds n/2 (1/r would be {ur})")
    if ur > Fraction(1, 2):
        raise ValueError(f"no admissible r >= 2: 1/r would be {ur} > 1/2")
    return from_recip(ur)


@dataclass
class RegionScan:
    condition_set: str
    axes: tuple
    resolution: int
    coords: list          # reciprocal coordinates per scanned point
    tuples: list          # assembled ExponentTuple or None (unassemblable)
    verdicts: list        # bool per point
    boundary: list        # coords of accepted cells adjacent to rejected ones

    @property
    def accepted(self) -> list:
        return [t for t, v in zip(self.tuples, self.verdicts) if v and t is not None]


def _solve_missing(condition_set: str, n: int, sigma, urec: dict) -> dict | None:
    """Fill at most one missing reciprocal from the set's equality clause."""
    missing = [k for k, v in urec.items() if v is None]
    if not missing:
        return urec
    if len(missing) > 1:
        raise ValueError(f"underdetermined scan: missing {missing}")
    name = missing[0]
    out = dict(urec)
    if condition_set == "classical":
        rhs = Fraction(n, 2)
    elif condition_set == "theorem":
        if urec.get("rt") is None:
            raise ValueError("cannot solve the trade-off equality without rt")
        rhs = Fraction(n, 2) - as_rational(sigma) - (n - 1) * urec["rt"]
    elif condition_set == "corollary":
        rhs = Fraction(n, 2) - as_rational(sigma)
    else:
        raise ValueError(
            f"condition set {condition_set!r} has no equality to solve {name} from")
    if name == "r":
        val = (rhs - 2 * urec["q"]) / n
    elif name == "q":
        val = (rhs - n * urec["r"]) / 2
    else:
        raise ValueError(f"can only solve q or r from the equality, not {name}")
    if val < 0 or val > 1:
        return None
    out[name] = val
    return out


def sample_region(condition_set: str, *, n: int, sigma=0, free, resolution: int,
                  fixed: dict | None = None) -> RegionScan:
    """Scan a region in reciprocal coordinates and re-verify every point.

    ``free`` names at most two of qt, rt, q, r; their reciprocals are
    scanned over {0, 1/resolution, ..., 1}.  Remaining exponents come from
    ``fixed`` or, where the condition set carries an equality clause, are
    solved exactly.  Every accepted point is re-verified by the predicate;
    boundary cells (accepted with a rejected scan neighbor) are emitted
    for plotting.
    """
    predicate = predicate_for(condition_set)
    free = tuple(free)
    if len(free) == 0 or len(free) > 2:
        raise ValueError("free must name one or two exponents")
    for f in free:
        if f not in ("qt", "rt", "q", "r"):
            raise ValueError(f"unknown free coordinate {f!r}")
    fixed = dict(fixed or {})
    if condition_set == "proposition":
        names = ("rt", "r")
    elif condition_set == "classical":
        names = ("q", "r")
    else:
        names = ("qt", "rt", "q", "r")
    for f in free:
        if f not in names:
            raise ValueError(
                f"{f!r} is not a coordinate of the {condition_set} region")
    # fixed reciprocals; None marks the one left to solve from the equality clause
    base = {name: recip(fixed[name]) if name in fixed else None
            for name in names if name not in free}
    steps = [Fraction(k, resolution) for k in range(resolution + 1)]
    # scan points in row-major order, the last free coordinate fastest
    indices = list(itertools.product(range(resolution + 1), repeat=len(free)))
    coords, tuples, verdicts = [], [], []
    for idx in indices:
        point = {f: steps[i] for f, i in zip(free, idx)}
        urec = {name: point[name] if name in free else base[name] for name in names}
        solved = _solve_missing(condition_set, n, sigma, urec)
        coords.append(point)
        if solved is None:
            tuples.append(None)
            verdicts.append(False)
            continue
        full = {k: solved.get(k, Fraction(0)) for k in ("qt", "rt", "q", "r")}
        tup = ExponentTuple(n=n, sigma=as_extended(sigma),
                            qt=from_recip(full["qt"]), rt=from_recip(full["rt"]),
                            q=from_recip(full["q"]), r=from_recip(full["r"]))
        tuples.append(tup)
        verdicts.append(predicate(tup).verdict)
    # an accepted point with a rejected neighbour, or none (off the scan), is boundary
    accepted = {idx for idx, v in zip(indices, verdicts) if v}
    boundary = [point for idx, point in zip(indices, coords) if idx in accepted and any(
        idx[:d] + (idx[d] + delta,) + idx[d + 1:] not in accepted
        for d in range(len(idx)) for delta in (-1, 1))]
    return RegionScan(condition_set=condition_set, axes=free, resolution=resolution,
                      coords=coords, tuples=tuples, verdicts=verdicts,
                      boundary=boundary)

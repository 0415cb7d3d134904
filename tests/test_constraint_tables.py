"""The constraint tables and the integer-lattice scan against reference predicates.

The references are the hand-written predicates and the point-by-point
Fraction scan that the tables replaced.  Each predicate states its
clauses directly as lhs - rhs; the scan assembles an ExponentTuple at
every lattice point and asks the predicate.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amalgam.exponents import (
    INF,
    ConstraintCheck,
    ExponentTuple,
    RegionReport,
    as_extended,
    as_rational,
    check,
    constraint_table,
    evaluate,
    recip,
    sample_region,
)

F = Fraction


def from_recip(u):
    """Inverse of recip: 0 -> inf."""
    u = Fraction(u)
    return INF if u == 0 else 1 / u


# ---------------------------------------------------------------------------
# reference predicates
# ---------------------------------------------------------------------------

def _gt(name, lhs, rhs):
    return ConstraintCheck(name, lhs > rhs, lhs - rhs)


def _ge(name, lhs, rhs):
    return ConstraintCheck(name, lhs >= rhs, lhs - rhs)


def _eq(name, lhs, rhs):
    return ConstraintCheck(name, lhs == rhs, lhs - rhs)


def ref_classical(q, r, n):
    q, r = as_extended(q), as_extended(r)
    uq, ur = recip(q), recip(r)
    rep = RegionReport(label="classical")
    rep.constraints.append(_ge("q >= 2", F(1, 2), uq))
    rep.constraints.append(_ge("r >= 2", F(1, 2), ur))
    rep.constraints.append(_eq("2/q + n/r = n/2", 2 * uq + n * ur, F(n, 2)))
    if n == 2:
        rep.constraints.append(_gt("r < inf (n = 2)", ur, F(0)))
    return rep


def ref_cn2(t):
    u = t.reciprocals()
    n = t.n
    rep = RegionReport(label="cn2")
    rep.constraints.append(_ge("qt >= 1", F(1), u["qt"]))
    rep.constraints.append(_ge("rt >= 1", F(1), u["rt"]))
    rep.constraints.append(_ge("q >= 2", F(1, 2), u["q"]))
    rep.constraints.append(_ge("r >= 2", F(1, 2), u["r"]))
    rep.constraints.append(_ge("rt <= r", u["rt"], u["r"]))
    rep.constraints.append(_ge("2/q + n/r <= n/2", F(n, 2), 2 * u["q"] + n * u["r"]))
    rep.constraints.append(_ge("n/2 <= 2/qt + n/rt", 2 * u["qt"] + n * u["rt"], F(n, 2)))
    if n == 2:
        rep.constraints.append(_gt("rt < inf (n = 2)", u["rt"], F(0)))
        rep.constraints.append(_gt("r < inf (n = 2)", u["r"], F(0)))
    if n >= 3:
        rep.constraints.append(_ge("rt <= 2n/(n-2)", u["rt"], F(n - 2, 2 * n)))
    return rep


def ref_theorem(t):
    u = t.reciprocals()
    n, sigma = t.n, t.sigma
    rep = RegionReport(label="theorem")
    rep.constraints.append(_ge("qt >= 2", F(1, 2), u["qt"]))
    rep.constraints.append(_gt("qt < q", u["qt"], u["q"]))
    rep.constraints.append(_gt("q < inf", u["q"], F(0)))
    rep.constraints.append(_ge("rt >= 2", F(1, 2), u["rt"]))
    rep.constraints.append(_ge("r >= 2", F(1, 2), u["r"]))
    lo = max(F(0), F(n - 2, 4))
    rep.constraints.append(_gt("sigma > max(0, (n-2)/4)", sigma, lo))
    rep.constraints.append(_gt("sigma < n/2", F(n, 2), sigma))
    rep.constraints.append(_gt("2/qt + (n-1)/rt > n/2 - sigma",
                               2 * u["qt"] + (n - 1) * u["rt"], F(n, 2) - sigma))
    rep.constraints.append(_eq("2/q + n/r = n/2 - sigma - (n-1)/rt",
                               2 * u["q"] + n * u["r"], F(n, 2) - sigma - (n - 1) * u["rt"]))
    return rep


def ref_prop_kernel(n, sigma, rt, r):
    sigma = as_rational(sigma)
    urt, ur = recip(rt), recip(r)
    rep = RegionReport(label="proposition")
    rep.constraints.append(_ge("rt >= 2", F(1, 2), urt))
    rep.constraints.append(_ge("r >= 2", F(1, 2), ur))
    rep.constraints.append(_gt("sigma > 0", sigma, F(0)))
    rep.constraints.append(_gt("sigma < n/2", F(n, 2), sigma))
    if not rep.verdict:
        rep.case = None
        return rep
    load = (n - 1) * urt + n * ur
    quarter = F(n, 4)
    c3 = _gt("(n-1)/rt + n/r < sigma", sigma, load)
    c4 = _gt("(n-1)/rt + n/r < n/2 - sigma", F(n, 2) - sigma, load)
    if sigma < quarter:
        rep.case = "c3"
        rep.constraints.append(c3)
    elif sigma > quarter:
        rep.case = "c4"
        rep.constraints.append(c4)
    else:
        rep.case = "c3|c4"
        rep.constraints.append(ConstraintCheck(
            "either strict kernel-decay inequality at sigma = n/4",
            c3.passed or c4.passed, max(c3.slack, c4.slack)))
    return rep


def ref_corollary(t):
    u = t.reciprocals()
    n, sigma = t.n, t.sigma
    rep = RegionReport(label="corollary")
    rep.constraints.append(_eq("rt = 4", u["rt"], F(1, 4)))
    lo = max(F(0), F(n - 2, 8))
    rep.constraints.append(_gt("sigma > max(0, (n-2)/8)", sigma, lo))
    rep.constraints.append(_gt("sigma < n/4", F(n, 4), sigma))
    rep.constraints.append(_eq("2/q + n/r = n/2 - sigma", 2 * u["q"] + n * u["r"], F(n, 2) - sigma))
    rep.constraints.append(_gt("2/qt > n/4 - sigma", 2 * u["qt"], F(n, 4) - sigma))
    rep.constraints.append(_gt("1/q > 0", u["q"], F(0)))
    rep.constraints.append(_gt("1/q < 1/qt + 1/4", u["qt"] + F(1, 4), u["q"]))
    rep.constraints.append(_ge("1/qt + 1/4 <= 1/2", F(1, 2), u["qt"] + F(1, 4)))
    rep.constraints.append(_ge("r >= 2", F(1, 2), u["r"]))
    if n == 2:
        rep.constraints.append(_gt("r < inf (n = 2)", u["r"], F(0)))
    return rep


REFERENCE = {
    "classical": lambda t: ref_classical(t.q, t.r, t.n),
    "cn2": ref_cn2,
    "theorem": ref_theorem,
    "proposition": lambda t: ref_prop_kernel(t.n, t.sigma, t.rt, t.r),
    "corollary": ref_corollary,
}
NAMES = {"classical": ("q", "r"), "proposition": ("rt", "r")}


def _same_report(got, want):
    assert got.label == want.label
    assert got.case == want.case
    assert got.verdict == want.verdict
    assert [(c.name, c.passed, c.slack) for c in got.constraints] == \
        [(c.name, c.passed, c.slack) for c in want.constraints]
    # the slack types too: exact Fractions
    assert [type(c.slack) for c in got.constraints] == [type(c.slack) for c in want.constraints]


_RECIPS = st.one_of(st.sampled_from([F(0), F(1, 4), F(1, 2), F(1)]),
                    st.fractions(0, 1, max_denominator=24))


@given(n=st.integers(1, 5), sigma=st.fractions(0, 3, max_denominator=16),
       uqt=_RECIPS, urt=_RECIPS, uq=_RECIPS, ur=_RECIPS)
@example(n=2, sigma=F(1, 2), uqt=F(1, 2), urt=F(0), uq=F(1, 2), ur=F(0))  # (2, inf, 2), sigma = n/4
@example(n=1, sigma=F(1, 4), uqt=F(1, 2), urt=F(0), uq=F(1, 10), ur=F(1, 10))
@example(n=2, sigma=F(1, 2), uqt=F(1, 4), urt=F(1, 4), uq=F(1, 8), ur=F(1, 4))
@example(n=3, sigma=F(3, 4), uqt=F(1, 2), urt=F(1, 6), uq=F(1, 4), ur=F(1, 6))
@example(n=4, sigma=F(1), uqt=F(1, 2), urt=F(1, 4), uq=F(1, 4), ur=F(0))
@settings(max_examples=250, deadline=None)
def test_tables_match_reference(n, sigma, uqt, urt, uq, ur):
    t = ExponentTuple(n, sigma, from_recip(uqt), from_recip(urt), from_recip(uq), from_recip(ur))
    for name in REFERENCE:
        _same_report(check(name, t), REFERENCE[name](t))


@given(n=st.integers(1, 5), sigma=st.fractions(-2, 3, max_denominator=16),
       urt=st.fractions(-1, 2, max_denominator=12), ur=st.fractions(-1, 2, max_denominator=12))
@example(n=2, sigma=F(1, 2), urt=F(1, 4), ur=F(1, 8))
@settings(max_examples=100, deadline=None)
def test_proposition_outside_the_tuple_ranges(n, sigma, urt, ur):
    # a table takes any order and any reciprocals, outside the tuple's ranges too
    _same_report(evaluate(constraint_table("proposition", n, sigma), {"rt": urt, "r": ur}),
                 ref_prop_kernel(n, sigma, from_recip(urt), from_recip(ur)))
    _same_report(evaluate(constraint_table("classical", n), {"q": urt, "r": ur}),
                 ref_classical(from_recip(urt), from_recip(ur), n))


def test_classical_endpoint_is_the_excluded_point():
    """At n = 2 the clause r < inf rejects exactly the point (q, r) = (2, inf)
    that the exclusion (q, r, n) != (2, inf, 2) removed: on 2/q + 2/r = 1,
    1/r = 0 holds exactly when 1/q = 1/2."""
    recips = sorted({F(i, d) for d in range(1, 13) for i in range(d + 1)})
    for n, uq, ur in itertools.product(range(1, 6), recips, recips):
        excluded = (uq, ur, n) == (F(1, 2), 0, 2)
        want = uq <= F(1, 2) and ur <= F(1, 2) and 2 * uq + n * ur == F(n, 2) and not excluded
        t = ExponentTuple(n, 0, 2, 2, from_recip(uq), from_recip(ur))
        assert check("classical", t).verdict == want, (n, uq, ur)


def test_quarter_row_is_both_inequalities():
    for n in range(1, 6):
        (row,) = [form for name, _, form in constraint_table("proposition", n, F(n, 4)).clauses
                  if name.startswith("either")]
        c3 = constraint_table("proposition", n, F(n, 4) - F(1, 10**9)).clauses[-1][2]
        c4 = constraint_table("proposition", n, F(n, 4) + F(1, 10**9)).clauses[-1][2]
        # both bound the same form; only the constant moves with sigma
        assert row[1:] == c3[1:] == c4[1:]
        assert row[0] == F(n, 4)


@pytest.mark.parametrize("n", [0, -2])
def test_dimension_checked_in_every_set(n):
    for name in REFERENCE:
        with pytest.raises(ValueError, match="dimension"):
            constraint_table(name, n, F(1, 4))


# ---------------------------------------------------------------------------
# reference scan
# ---------------------------------------------------------------------------

def _ref_solve_missing(condition_set, n, sigma, urec):
    missing = [k for k, v in urec.items() if v is None]
    if not missing:
        return urec
    name = missing[0]
    out = dict(urec)
    # the set's equality: 2/q + n/r (+ (n-1)/rt in the theorem's trade-off) = rhs
    coef = {"q": 2, "r": n, "rt": n - 1 if condition_set == "theorem" else 0}
    rhs = F(n, 2) if condition_set == "classical" else F(n, 2) - as_rational(sigma)
    val = (rhs - sum(c * urec[a] for a, c in coef.items() if a != name and a in urec)) / coef[name]
    if val < 0 or val > 1:
        return None
    out[name] = val
    return out


def ref_scan(condition_set, n, sigma, free, resolution, fixed):
    """(coords, tuples, verdicts, boundary) point by point, as the Fraction scan did."""
    names = NAMES.get(condition_set, ("qt", "rt", "q", "r"))
    base = {name: recip(fixed[name]) if name in fixed else None
            for name in names if name not in free}
    steps = [F(k, resolution) for k in range(resolution + 1)]
    indices = list(itertools.product(range(resolution + 1), repeat=len(free)))
    coords, tuples, verdicts = [], [], []
    for idx in indices:
        point = {f: steps[i] for f, i in zip(free, idx)}
        urec = {name: point[name] if name in free else base[name] for name in names}
        solved = _ref_solve_missing(condition_set, n, sigma, urec)
        coords.append(point)
        if solved is None:
            tuples.append(None)
            verdicts.append(False)
            continue
        full = {k: solved.get(k, F(0)) for k in ("qt", "rt", "q", "r")}
        tup = ExponentTuple(n=n, sigma=as_extended(sigma),
                            qt=from_recip(full["qt"]), rt=from_recip(full["rt"]),
                            q=from_recip(full["q"]), r=from_recip(full["r"]))
        tuples.append(tup)
        verdicts.append(REFERENCE[condition_set](tup).verdict)
    accepted = {idx for idx, v in zip(indices, verdicts) if v}
    boundary = [point for idx, point in zip(indices, coords) if idx in accepted and any(
        idx[:d] + (idx[d] + delta,) + idx[d + 1:] not in accepted
        for d in range(len(idx)) for delta in (-1, 1))]
    return coords, tuples, verdicts, boundary


SCANS = [
    ("theorem", 1, "0.3", ("qt", "q"), {"rt": "inf"}),
    ("theorem", 2, "0.3", ("qt", "q"), {"rt": 4}),
    ("theorem", 3, "0.7", ("qt", "r"), {"rt": 6}),
    ("theorem", 2, "1/3", ("q",), {"qt": 2, "rt": "inf"}),
    ("theorem", 1, "0.3", ("q", "r"), {"qt": 2, "rt": "inf"}),
    ("theorem", 1, "0.9", ("qt", "q"), {"rt": "inf"}),
    ("proposition", 1, "0.25", ("rt", "r"), {}),
    ("proposition", 2, "0.5", ("rt", "r"), {}),
    ("proposition", 3, "0.75", ("rt", "r"), {}),
    ("proposition", 2, "0.3", ("rt", "r"), {}),
    ("proposition", 3, "1.1", ("r",), {"rt": 4}),
    ("proposition", 1, "0.7", ("rt", "r"), {}),
    ("classical", 2, "0", ("q",), {}),
    ("classical", 2, "0", ("r",), {}),
    ("classical", 1, "0", ("q", "r"), {}),
    ("classical", 2, "0", ("q", "r"), {}),
    ("classical", 3, "0", ("r",), {}),
    ("classical", 2, "0", ("q",), {"r": "inf"}),
    ("cn2", 1, "0", ("q", "r"), {"qt": 2, "rt": 4}),
    ("cn2", 2, "0", ("qt", "rt"), {"q": 4, "r": 4}),
    ("cn2", 3, "0", ("qt", "rt"), {"q": 2, "r": 6}),
    ("cn2", 4, "0", ("rt",), {"qt": 2, "q": 3, "r": 3}),
    ("corollary", 1, "0.2", ("qt", "q"), {"rt": 4}),
    ("corollary", 2, "0.3", ("qt", "q"), {"rt": 4}),
    ("corollary", 3, "0.6", ("q",), {"rt": 4, "qt": 5}),
    ("corollary", 2, "0.3", ("r",), {"rt": 4, "qt": 4}),
    ("corollary", 1, "0.2", ("q", "r"), {"qt": 4, "rt": 4}),
    # the theorem's trade-off has a (n-1)/rt term, so rt can be the solved coordinate
    ("theorem", 2, "0.6", ("qt", "q"), {"r": 10}),
    ("theorem", 3, "0.6", ("qt", "q"), {"r": 10}),
]


@pytest.mark.parametrize("resolution", [1, 7, 12, 20])
@pytest.mark.parametrize("condition_set,n,sigma,free,fixed", SCANS)
def test_scan_matches_reference(condition_set, n, sigma, free, fixed, resolution):
    scan = sample_region(condition_set, n=n, sigma=sigma, free=free, fixed=fixed,
                         resolution=resolution)
    coords, _, verdicts, boundary = ref_scan(condition_set, n, sigma, free, resolution, fixed)
    assert scan.verdicts == verdicts
    assert all(type(v) is bool for v in scan.verdicts)
    assert [coords[k] for k in scan.edge] == boundary


@st.composite
def _scan_setups(draw):
    """A random scan the reference can run: one or two free axes, the rest fixed,
    or q or r left to the equality of the classical, theorem or corollary set."""
    condition_set = draw(st.sampled_from(sorted(REFERENCE)))
    names = NAMES.get(condition_set, ("qt", "rt", "q", "r"))
    free = tuple(draw(st.permutations(names))[:draw(st.integers(1, 2))])
    rest = [a for a in names if a not in free]
    solved = [a for a in rest if a in ("q", "r")] if condition_set in ("classical", "theorem",
                                                                       "corollary") else []
    left = draw(st.sampled_from([None] + solved))
    fixed = {a: from_recip(draw(_RECIPS)) for a in rest if a != left}
    return (condition_set, draw(st.integers(1, 5)), draw(st.fractions(0, 3, max_denominator=12)),
            free, fixed, draw(st.integers(1, 12)))


@given(setup=_scan_setups())
@settings(max_examples=150, deadline=None)
def test_random_scans_match_reference(setup):
    condition_set, n, sigma, free, fixed, resolution = setup
    scan = sample_region(condition_set, n=n, sigma=sigma, free=free, fixed=fixed,
                         resolution=resolution)
    coords, _, verdicts, boundary = ref_scan(condition_set, n, sigma, free, resolution, fixed)
    assert (scan.verdicts, [coords[k] for k in scan.edge]) == (verdicts, boundary)


def test_theorem_scan_hand_count():
    """The n = 1, sigma = 3/10, rt = inf theorem scan at resolution 256.

    In a = 1/qt = i/256, b = 1/q = j/256 the trade-off equality gives
    1/r = 1/5 - 2b, and the region reduces to 0 < b <= 1/10, b < a <= 1/2
    and a > 1/10: 2575 accepted cells, 252 of them on the boundary.
    """
    scan = sample_region("theorem", n=1, sigma="0.3", free=("qt", "q"),
                         fixed={"rt": "inf"}, resolution=256)
    assert len(scan.verdicts) == 257 ** 2
    assert sum(scan.verdicts) == 2575
    assert len(scan.edge) == 252

    def accept(i, j):
        return 0 < j < i and 10 * j <= 256 < 10 * i and 2 * i <= 256

    assert scan.verdicts == [accept(i, j) for i in range(257) for j in range(257)]


@pytest.mark.parametrize("kwargs,match", [
    ({"resolution": 0}, "resolution"),
    ({"resolution": -3}, "resolution"),
    ({"n": 0}, "dimension"),
    ({"fixed": {"rt": "inf", "bogus": 3}}, "'bogus'"),
    ({"fixed": {"rt": "inf", "qt": 2}}, "'qt' is both free and fixed"),
    ({"fixed": {"rt": "1/2"}}, "rt must lie"),
    ({"sigma": "-1/2"}, "smoothing order"),
    ({"free": ("qt", "qt")}, "distinct"),
    ({"fixed": {}}, "underdetermined"),
    ({"fixed": {"r": 4}}, "no equality to solve rt"),
])
def test_scan_rejects_bad_input(kwargs, match):
    args = dict(n=1, sigma="0.3", free=("qt", "q"), fixed={"rt": "inf"}, resolution=8)
    with pytest.raises(ValueError, match=match):
        sample_region("theorem", **{**args, **kwargs})

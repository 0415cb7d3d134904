from fractions import Fraction

import numpy as np
import pytest

from amalgam.exponents import (
    INF,
    ExponentTuple,
    check,
    predicted_kernel_decay,
    recip,
    sample_region,
)
from test_constraint_tables import from_recip, ref_scan  # the tests' one reference scan

F = Fraction


def tup(n, sigma, qt, rt, q, r):
    return ExponentTuple(n=n, sigma=sigma, qt=qt, rt=rt, q=q, r=r)


def classical(q, r, n):
    return check("classical", tup(n, 0, 2, 2, q, r))


def proposition(n, sigma, rt, r):
    return check("proposition", tup(n, sigma, 2, rt, 2, r))


class TestCheck:
    def test_unknown_set(self):
        with pytest.raises(ValueError) as err:
            check("bogus", tup(1, 0, 2, 2, 2, 2))
        assert str(err.value) == ("unknown condition set 'bogus'; choose from "
                                  "['classical', 'cn2', 'corollary', 'proposition', 'theorem']")

    def test_classical_endpoint_clause(self):
        # at n = 2 the endpoint (2, inf) fails r < inf with slack 0; at n != 2 there is no clause
        rep = classical(2, "inf", 2)
        assert [(c.name, c.passed, c.slack) for c in rep.failed()] == [
            ("r < inf (n = 2)", False, 0)]
        assert [c.name for c in classical(4, "inf", 1).constraints] == [
            "q >= 2", "r >= 2", "2/q + n/r = n/2"]


class TestClassical:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_endpoint_accepts_every_n(self, n):
        assert classical("inf", 2, n).verdict

    def test_forbidden_endpoint(self):
        assert not classical(2, "inf", 2).verdict

    def test_44_in_2d(self):
        assert classical(4, 4, 2).verdict

    def test_off_line_rejected(self):
        rep = classical(4, 4, 1)
        assert not rep.verdict
        names = [c.name for c in rep.failed()]
        assert any("n/2" in nm for nm in names)


class TestCn2:
    def test_symmetric_3d_point(self):
        assert check("cn2", tup(3, 0, 2, 6, 2, 6)).verdict

    def test_r_infinite_in_2d_rejected(self):
        assert not check("cn2", tup(2, 0, 2, 2, 2, "inf")).verdict

    def test_rt_above_r_rejected(self):
        assert not check("cn2", tup(1, 0, 2, 6, 4, 4)).verdict

    def test_rt_cap_in_3d(self):
        assert not check("cn2", tup(3, 0, 2, 8, 2, 8)).verdict  # 8 > 2n/(n-2) = 6


class TestTheorem:
    def test_worked_accept(self):
        rep = check("theorem", tup(1, "0.3", 2, "inf", 10, "inf"))
        assert rep.verdict

    def test_qt_equal_q_rejected(self):
        assert not check("theorem", tup(1, "0.3", 10, "inf", 10, "inf")).verdict

    def test_sigma_at_upper_end_rejected(self):
        assert not check("theorem", tup(1, "0.5", 2, "inf", 10, "inf")).verdict

    def test_strict_boundary_rejected(self):
        # time-local clause exactly at equality: 2/qt = n/2 - sigma
        rep = check("theorem", tup(1, "0.3", 10, "inf", 20, "inf"))
        assert not rep.verdict
        bad = [c.name for c in rep.failed()]
        assert any("2/qt" in nm for nm in bad)

    def test_slack_values_exact(self):
        rep = check("theorem", tup(1, "0.3", 2, "inf", 10, "inf"))
        by_name = {c.name: c.slack for c in rep.constraints}
        assert by_name["2/qt + (n-1)/rt > n/2 - sigma"] == F(4, 5)
        assert by_name["2/q + n/r = n/2 - sigma - (n-1)/rt"] == 0


class TestProposition:
    def test_small_order_case(self):
        rep = proposition(1, "0.2", "inf", 10)
        assert rep.verdict and rep.case == "c3"

    def test_large_order_case_reject(self):
        rep = proposition(1, "0.3", "inf", 4)
        assert rep.case == "c4" and not rep.verdict

    def test_sigma_out_of_range(self):
        assert not proposition(1, "0.6", "inf", 10).verdict
        assert not proposition(1, 0, "inf", 10).verdict

    def test_quarter_point_either_case(self):
        # at sigma = n/4 both case inequalities coincide in strength here
        rep = proposition(1, F(1, 4), "inf", 10)
        assert rep.case == "c3|c4"
        assert rep.verdict  # 1/10 < 1/4 on both sides

    def test_exact_boundary_rejected(self):
        # (n-1)/rt + n/r exactly equals sigma: strict inequality fails
        rep = proposition(1, F(1, 5), "inf", 5)
        assert not rep.verdict


class TestCorollary:
    def test_worked_accept(self):
        assert check("corollary", tup(1, "0.2", 4, 4, 10, 10)).verdict

    def test_r_infinite_in_2d_rejected(self):
        assert not check("corollary", tup(2, "0.3", 4, 4, 8, "inf")).verdict

    def test_qt_2_rejected(self):
        rep = check("corollary", tup(1, "0.2", 2, 4, 10, 10))
        assert not rep.verdict
        assert any("1/qt + 1/4 <= 1/2" in c.name for c in rep.failed())

    def test_rt_must_be_4(self):
        assert not check("corollary", tup(1, "0.2", 4, 6, 10, 10)).verdict


class TestPredictedDecay:
    def test_flat_case(self):
        s, l = predicted_kernel_decay(1, "0.3", "inf", "inf")
        assert (s, l) == (F(-1, 5), F(-1, 5))

    def test_two_regimes(self):
        s, l = predicted_kernel_decay(1, "0.3", "inf", 10)
        assert (s, l) == (F(-1, 5), F(-1, 10))

    def test_small_order(self):
        s, l = predicted_kernel_decay(1, "0.2", "inf", 10)
        assert (s, l) == (F(-3, 10), F(-1, 5))


class TestClassicalLine:
    """The classical Sobolev line 2/q + n/r = n/2 - sigma is the theorem's trade-off
    clause at rt = inf; each case is solved for r by hand."""

    @staticmethod
    def line(n, sigma, q, r):
        """The trade-off clause, the theorem's last, at (qt, rt) = (2, inf)."""
        return check("theorem", ExponentTuple(n, sigma, 2, INF, q, r)).constraints[-1]

    @pytest.mark.parametrize("n,sigma,q", [(1, "0.3", 10), (2, "0.5", 4), (1, "0.45", 40)])
    def test_solves_to_infinity(self, n, sigma, q):
        assert self.line(n, sigma, q, INF) == ("2/q + n/r = n/2 - sigma - (n-1)/rt", True, 0)
        assert not self.line(n, sigma, q, 2).passed

    def test_finite_solution(self):
        assert self.line(1, "0.2", 10, 10).slack == 0
        assert self.line(1, "0.2", 10, INF).slack == F(-1, 10)

    def test_no_admissible_r(self):
        # 2/q = 1/2 exceeds n/2 - sigma = 1/20, and 1/r >= 0 only adds to it
        for r in (2, 10, INF):
            c = self.line(1, "0.45", 4, r)
            assert not c.passed and c.slack == F(9, 20) + recip(r)


class TestContainment:
    """Containment of the theorem region in the kernel-decay region.

    (c2) with q < inf forces the large-order kernel inequality, so the
    containment holds without further conditions when sigma >= n/4.  For
    sigma < n/4 it genuinely fails: the small-order kernel clause is
    equivalent (under the trade-off equality) to 2/q > n/2 - 2 sigma,
    which the region conditions do not imply.  A concrete witness is
    pinned below; the scan asserts the exact characterization.
    """

    def test_witness_gap_below_quarter(self):
        witness = tup(1, "0.2", 4, "inf", 40, 4)
        assert check("theorem", witness).verdict
        assert not proposition(1, "0.2", "inf", 4).verdict

    def test_scan(self):
        count = 0
        checked = 0
        for n in (1, 2, 3):
            sig_lo = max(F(0), F(n - 2, 4))
            for snum in range(1, 12):
                sigma = sig_lo + (F(n, 2) - sig_lo) * F(snum, 12)
                for uqt in (F(1, 2), F(2, 5), F(1, 3), F(1, 4), F(1, 5), F(1, 8)):
                    for urt in (F(0), F(1, 8), F(1, 4), F(1, 3), F(1, 2)):
                        for uq in (F(1, 40), F(1, 16), F(1, 10), F(1, 8),
                                   F(1, 5), F(1, 4), F(1, 3), F(2, 5)):
                            count += 1
                            ur = (F(n, 2) - sigma - (n - 1) * urt - 2 * uq) / n
                            if ur < 0 or ur > F(1, 2):
                                continue
                            t = tup(n, sigma, from_recip(uqt), from_recip(urt),
                                    from_recip(uq), from_recip(ur))
                            if not check("theorem", t).verdict:
                                continue
                            checked += 1
                            prop = check("proposition", t).verdict
                            # always implied: the large-order inequality
                            assert (n - 1) * urt + n * ur < F(n, 2) - sigma
                            if sigma >= F(n, 4):
                                assert prop, (n, sigma, t)
                            else:
                                assert prop == (2 * uq > F(n, 2) - 2 * sigma), (n, sigma, t)
        assert count >= 7_000  # grid coverage
        assert checked >= 100


class TestInterpolationConsistency:
    """theta = 1/2 between the two one-sided bilinear estimates must land
    exactly on the derived relations for the combined region."""

    def _random_endpoints(self, rng, n):
        # smoothing order in (max(0, (n-2)/8), n/4)
        lo = max(F(0), F(n - 2, 8))
        hi = F(n, 4)
        sigma = lo + (hi - lo) * F(int(rng.integers(1, 20)), 20)
        # first endpoint: 2/qt1 > n/2 - 2 sigma, qt1 < q1 < inf,
        # 2/q1 + n/r1 = n/2 - 2 sigma with r1 >= 2
        floor_u = (F(n, 2) - 2 * sigma) / 2
        lo_u = max(floor_u, F(0))
        if lo_u >= F(1, 2):
            # no qt1 >= 2 satisfies the strict lower bound
            return None
        uqt1 = lo_u + (F(1, 2) - lo_u) * F(int(rng.integers(1, 10)), 10)
        cap = min(uqt1, (F(n, 2) - 2 * sigma) / 2, F(1, 2))
        if cap <= 0:
            # no positive 2/q1 can satisfy the trade-off; rare, skip
            return None
        uq1 = cap * F(int(rng.integers(1, 10)), 10)
        if uq1 >= uqt1:
            return None
        ur1 = (F(n, 2) - 2 * sigma - 2 * uq1) / n
        if ur1 < 0 or ur1 > F(1, 2):
            return None
        # second endpoint: scale-invariant admissible pair
        uq2 = F(int(rng.integers(0, 10)), 20)
        ur2 = (F(n, 2) - 2 * uq2) / n
        if ur2 < 0 or ur2 > F(1, 2):
            return None
        if n == 2 and uq2 == F(1, 2) and ur2 == 0:
            return None
        return sigma, uqt1, uq1, ur1, uq2, ur2

    def test_relations_and_region(self):
        rng = np.random.default_rng(42)
        done = 0
        while done < 100:
            n = int(rng.integers(1, 4))
            pick = self._random_endpoints(rng, n)
            if pick is None:
                continue
            sigma, uqt1, uq1, ur1, uq2, ur2 = pick
            qt1, q1, r1 = from_recip(uqt1), from_recip(uq1), from_recip(ur1)
            q2, r2 = from_recip(uq2), from_recip(ur2)
            assert classical(q2, r2, n).verdict
            th = F(1, 2)

            # interpolate the dual-side spaces, then dualize back: in reciprocals the
            # conjugate of u is 1 - u, and interpolation is the th-weighted average
            def dual_mean(u0, u1):
                return from_recip(1 - (th * (1 - u0) + (1 - th) * (1 - u1)))

            qt, q = dual_mean(uqt1, 0), dual_mean(uq1, uq2)
            rt, r = dual_mean(0, F(1, 2)), dual_mean(ur1, ur2)
            assert recip(qt) == uqt1 / 2
            assert recip(q) == (uq1 + uq2) / 2
            assert recip(rt) == F(1, 4)
            assert recip(r) == (ur1 + ur2) / 2
            combined = tup(n, sigma, qt, rt, q, r)
            assert check("corollary", combined).verdict, combined
            done += 1


class TestSampleRegion:
    def test_theorem_scan_reverified(self):
        scan = sample_region("theorem", n=1, sigma="0.3", free=("qt", "q"),
                             fixed={"rt": "inf"}, resolution=16)
        _, tuples, _, _ = ref_scan("theorem", 1, "0.3", ("qt", "q"), 16, {"rt": "inf"})
        accepted = [t for t, ok in zip(tuples, scan.verdicts) if ok]
        assert len(accepted) > 0
        for t in accepted:
            rep = check("theorem", t)
            assert rep.verdict
            assert recip(t.qt) > recip(t.q)  # qt < q

    def test_empty_region(self):
        scan = sample_region("theorem", n=1, sigma="0.9", free=("qt", "q"),
                             fixed={"rt": "inf"}, resolution=8)
        assert not any(scan.verdicts)

    def test_refinement_monotone(self):
        coarse = sample_region("proposition", n=1, sigma="0.3", free=("rt", "r"),
                               resolution=8)
        fine = sample_region("proposition", n=1, sigma="0.3", free=("rt", "r"),
                             resolution=16)
        coords = [ref_scan("proposition", 1, "0.3", ("rt", "r"), res, {})[0] for res in (8, 16)]
        acc_coarse = {tuple(sorted((k, v) for k, v in c.items()))
                      for c, ok in zip(coords[0], coarse.verdicts) if ok}
        acc_fine = {tuple(sorted((k, v) for k, v in c.items()))
                    for c, ok in zip(coords[1], fine.verdicts) if ok}
        assert acc_coarse <= acc_fine

    def test_boundary_nonempty(self):
        scan = sample_region("proposition", n=1, sigma="0.3", free=("rt", "r"),
                             resolution=16)
        assert len(scan.edge) > 0

    def test_overdimensional_rejected(self):
        with pytest.raises(ValueError):
            sample_region("cn2", n=1, free=("qt", "rt", "q"), resolution=8)

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            sample_region("cn2", n=1, free=("qt", "rt"), resolution=8)

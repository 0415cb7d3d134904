import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam.grid import (
    GridSpec,
    SampledField,
    SpaceTimeField,
    lebesgue_norm,
    mixed_lebesgue_norm,
)
from amalgam.wiener import (
    WindowSpec,
    amalgam_norm,
    holder_pairing,
    inclusion_check,
    interpolate_exponents,
    materialize_window,
    spacetime_amalgam_norm,
    unit_cube_partition,
    weak_lorentz_norm,
)
from amalgam.verify import band_limited_field, spike_field


def brute_force_amalgam(fld, p, q, window):
    """Translate-by-translate oracle with explicit distance arithmetic."""
    g = fld.grid
    L, dx = g.length, g.dx
    s = int(round(window.step / dx))
    K = int(round(2 * L / window.step))
    axes = [g.axis_points()] * g.n
    mesh = np.meshgrid(*axes, indexing="ij")
    phi_norm = None
    locals_ = []
    for flat in range(K ** g.n):
        idx = np.unravel_index(flat, (K,) * g.n)
        center = [((L + i * s * dx) % (2 * L)) - L for i in idx]
        disp = [((c - c0 + L) % (2 * L)) - L for c, c0 in zip(mesh, center)]
        if window.kind == "cube-indicator":
            # half-open cube so translates tile lattice points exactly
            inside = np.ones_like(disp[0], dtype=bool)
            for d in disp:
                inside &= (d >= -window.radius) & (d < window.radius)
            phi = inside.astype(float)
        else:
            dist = np.sqrt(sum(d ** 2 for d in disp))
            phi = window.profile(dist)
        if window.normalization == "l2":
            if phi_norm is None:
                ref = [((c + L) % (2 * L)) - L for c in mesh]
                if window.kind == "cube-indicator":
                    dref = np.max(np.stack([np.abs(d) for d in ref]), axis=0)
                else:
                    dref = np.sqrt(sum(d ** 2 for d in ref))
                phi_norm = np.sqrt(np.sum(window.profile(dref) ** 2) * g.cell_volume)
            phi = phi / phi_norm
        prod = np.abs(fld.values * phi)
        if math.isinf(p):
            locals_.append(prod.max())
        else:
            locals_.append((np.sum(prod ** p) * g.cell_volume) ** (1 / p))
    locals_ = np.array(locals_)
    if math.isinf(q):
        return locals_.max()
    return (window.step ** g.n * np.sum(locals_ ** q)) ** (1 / q)


class TestWindowSpec:
    def test_partition_requires_cube(self):
        with pytest.raises(ValueError):
            WindowSpec("gaussian", radius=0.5, step=1.0, normalization="partition")

    def test_partition_requires_side_eq_step(self):
        with pytest.raises(ValueError):
            WindowSpec("cube-indicator", radius=0.5, step=2.0, normalization="partition")

    def test_support_must_fit_torus(self):
        g = GridSpec(1, 2.0, 64)
        win = WindowSpec("smooth-bump", radius=3.0, step=1.0)
        with pytest.raises(ValueError, match="self-overlap"):
            materialize_window(win, g)

    def test_l2_normalization(self, grid1d):
        win = WindowSpec("gaussian", radius=0.7, step=1.0)
        phi = materialize_window(win, grid1d)
        assert np.sum(phi ** 2) * grid1d.cell_volume == pytest.approx(1.0, rel=1e-12)

    def test_step_must_divide(self, grid1d):
        win = WindowSpec("cube-indicator", radius=0.15, step=0.3)
        f = SampledField(grid1d, np.ones(grid1d.shape))
        with pytest.raises(ValueError):
            amalgam_norm(f, 2, 2, win)


class TestAmalgamNorm:
    def test_diagonal_identity(self, grid1d, rng):
        win = unit_cube_partition()
        vals = rng.standard_normal(grid1d.shape) + 1j * rng.standard_normal(grid1d.shape)
        f = SampledField(grid1d, vals)
        for p in (1, 2, 4, np.inf):
            assert amalgam_norm(f, p, p, win).value == pytest.approx(
                lebesgue_norm(f, p).value, rel=1e-12)

    def test_constant_field_count(self):
        g = GridSpec(1, 16.0, 512)  # box length 32
        f = SampledField(g, np.ones(g.shape))
        got = amalgam_norm(f, np.inf, 4, unit_cube_partition()).value
        assert got == pytest.approx(32 ** 0.25, rel=1e-12)

    def test_gaussian_window_matches_brute_force(self, grid1d):
        win = WindowSpec("gaussian", radius=0.8, step=2.0)
        f = band_limited_field(grid1d, 5)
        got = amalgam_norm(f, 2, 4, win).value
        want = brute_force_amalgam(f, 2, 4, win)
        assert got == pytest.approx(want, rel=1e-10)

    def test_bump_window_matches_brute_force_2d(self, grid2d):
        win = WindowSpec("smooth-bump", radius=1.5, step=2.0)
        f = band_limited_field(grid2d, 7)
        got = amalgam_norm(f, 3, 2, win).value
        want = brute_force_amalgam(f, 3, 2, win)
        assert got == pytest.approx(want, rel=1e-10)

    # grids with step-1 windows: s = 8, K = 8 (n = 1); s = 4, K = 8 (n = 2); s = 4, K = 4 (n = 3)
    SMALL_GRIDS = {1: GridSpec(1, 4.0, 64), 2: GridSpec(2, 4.0, 32), 3: GridSpec(3, 2.0, 16)}
    # the bump's radius exceeds the step, so it spans at least 3 blocks per
    # axis; the cube's radius sits between lattice points so the open and
    # half-open cube conventions select the same samples
    SMOOTH_WINDOWS = {
        "gaussian": WindowSpec("gaussian", radius=0.7, step=1.0),
        "smooth-bump": WindowSpec("smooth-bump", radius=1.5, step=1.0),
        "cube-indicator": WindowSpec("cube-indicator", radius=0.6, step=1.0),
    }

    @pytest.mark.parametrize("p", [1, 2, 3, np.inf])
    @pytest.mark.parametrize("kind", sorted(SMOOTH_WINDOWS))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_smooth_window_matches_brute_force(self, n, kind, p):
        g = self.SMALL_GRIDS[n]
        win = self.SMOOTH_WINDOWS[kind]
        rng = np.random.default_rng(n)
        f = SampledField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        for q in (4, np.inf):
            got = amalgam_norm(f, p, q, win)
            assert got.value == pytest.approx(brute_force_amalgam(f, p, q, win), rel=1e-12)
        if kind == "smooth-bump":
            assert got.meta["window_blocks"] >= 3 ** n

    @pytest.mark.parametrize("p", [2, np.inf])
    @pytest.mark.parametrize("kind", ["gaussian", "smooth-bump"])
    def test_single_translate_matches_brute_force(self, kind, p):
        # step = 2L: one translate (K = 1), the window's only block is the torus
        g = GridSpec(2, 2.0, 16)
        win = WindowSpec(kind, radius=1.5, step=4.0)
        f = band_limited_field(g, 11)
        got = amalgam_norm(f, p, 3, win)
        assert got.meta["window_blocks"] == 1
        assert got.value == pytest.approx(brute_force_amalgam(f, p, 3, win), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_window_blocks_count(self, n):
        # a radius-1 bump centered on a block corner touches 2 blocks per axis
        g = GridSpec(n, 2.0, 16)
        f = band_limited_field(g, 5)
        win = WindowSpec("smooth-bump", radius=1.0, step=1.0)
        metas = [amalgam_norm(f, p, 2, win).meta for p in (2, np.inf, 2)]
        assert [m["window_blocks"] for m in metas] == [2 ** n] * 3

    def test_homogeneity(self, grid1d, rng):
        f = band_limited_field(grid1d, 9)
        lam = 3.7
        scaled = SampledField(grid1d, lam * f.values)
        a = amalgam_norm(scaled, 2, 4, unit_cube_partition()).value
        b = amalgam_norm(f, 2, 4, unit_cube_partition()).value
        assert a == pytest.approx(lam * b, rel=1e-12)

    def test_triangle(self, grid1d):
        win = unit_cube_partition()
        for seed in range(500):
            f = band_limited_field(grid1d, seed)
            g = band_limited_field(grid1d, 1000 + seed)
            s = SampledField(grid1d, f.values + g.values)
            for (p, q) in ((2, 4), (np.inf, 2)):
                assert amalgam_norm(s, p, q, win).value <= (
                    amalgam_norm(f, p, q, win).value
                    + amalgam_norm(g, p, q, win).value) * (1 + 1e-12)

    def test_window_equivalence_bracket(self):
        # bracket recorded from the seed-2026 calibration corpus of 200
        # band-limited fields (see verify.window_equivalence_bracket);
        # recorded, not derived
        from amalgam.verify import window_equivalence_bracket
        g = GridSpec(1, 16.0, 512)
        lo, hi, ratios = window_equivalence_bracket(g, 2, 4, seed=2026, count=200)
        assert 0.97 <= lo <= hi <= 1.02
        assert len(ratios) == 200


class TestWeakLorentz:
    def test_extremal_sequence(self):
        for p in (0.5, 1.0, 2.5):
            m = np.arange(1, 301)
            seq = m ** (-1.0 / p)
            assert weak_lorentz_norm(seq, p).value == pytest.approx(1.0, rel=1e-12)

    def test_zero_and_empty(self):
        assert weak_lorentz_norm(np.zeros(10), 2).value == 0.0
        assert weak_lorentz_norm([], 2).value == 0.0

    def test_single_term_equals_strong(self):
        seq = np.zeros(20)
        seq[7] = 3.5
        for p in (1, 2, 4):
            assert weak_lorentz_norm(seq, p).value == pytest.approx(3.5)

    def test_weak_below_strong_on_random(self, rng):
        for _ in range(500):
            seq = rng.standard_normal(rng.integers(1, 60))
            for p in (1.0, 2.0, 3.5):
                weak = weak_lorentz_norm(seq, p).value
                strong = float(np.sum(np.abs(seq) ** p) ** (1 / p))
                assert weak <= strong * (1 + 1e-12)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            weak_lorentz_norm([1.0], 0)


def _random_stf(grid, times, seed):
    return SpaceTimeField(
        grid, times, np.array([band_limited_field(grid, seed + i).values
                               for i in range(len(times))]))


class TestSpacetimeAmalgam:
    def test_diagonal_matches_mixed_norm(self, rng):
        g = GridSpec(1, 8.0, 256)
        times = np.linspace(-3.0, 3.0, 25)
        stf = _random_stf(g, times, 17)
        win = unit_cube_partition()
        got = spacetime_amalgam_norm(stf, 2, 2, 4, 4, win, win).value
        want = mixed_lebesgue_norm(stf, 2, 4).value
        assert got == pytest.approx(want, rel=1e-12)

    def test_single_slice_reduces_to_spatial(self, rng):
        g = GridSpec(1, 8.0, 256)
        f = band_limited_field(g, 3)
        stf = SpaceTimeField(g, np.array([0.2]), np.array([f.values]))
        win = unit_cube_partition()
        got = spacetime_amalgam_norm(stf, 2, 4, 2, 6, win, win).value
        spatial = amalgam_norm(f, 2, 6, win).value
        assert got == pytest.approx(spatial, rel=1e-12)  # unit time-window factor

    def test_brute_force_small_case(self):
        # nested-loop oracle over time translates and slices
        g = GridSpec(1, 4.0, 128)
        times = np.linspace(-2.0, 2.0, 17)
        stf = _random_stf(g, times, 23)
        win = unit_cube_partition()
        qt, q, rt, r = 3, 5, 2, 4
        from amalgam.grid import trapezoid_weights
        w = trapezoid_weights(times)
        spatial = np.array([brute_force_amalgam(SampledField(g, stf.values[k]), rt, r, win)
                            for k in range(len(times))])
        ks = sorted({int(np.floor(t + 0.5)) for t in times})
        locs = []
        for k in ks:
            mask = (times >= k - 0.5) & (times < k + 0.5)
            locs.append(np.sum(w[mask] * spatial[mask] ** qt) ** (1 / qt))
        want = float(np.sum(np.asarray(locs) ** q) ** (1 / q))
        got = spacetime_amalgam_norm(stf, qt, q, rt, r, win, win).value
        assert got == pytest.approx(want, rel=1e-10)
        # a smooth time window: translates whose support fits in [-2, 2], and
        # every instant weighted by the window
        gauss = WindowSpec("gaussian", radius=0.5, step=1.0)
        locs = [np.sum(w * (spatial * gauss.profile(np.abs(times - k))) ** qt) ** (1 / qt)
                for k in (-1, 0, 1)]
        want = float(np.sum(np.asarray(locs) ** q) ** (1 / q))
        got = spacetime_amalgam_norm(stf, qt, q, rt, r, gauss, win).value
        assert got == pytest.approx(want, rel=1e-10)

    def test_weak_outer_flag(self):
        g = GridSpec(1, 4.0, 128)
        times = np.linspace(-4.0, 4.0, 33)
        stf = _random_stf(g, times, 5)
        win = unit_cube_partition()
        strong = spacetime_amalgam_norm(stf, 2, 4, 2, 4, win, win).value
        weak = spacetime_amalgam_norm(stf, 2, 4, 2, 4, win, win,
                                      weak_outer_time=True).value
        assert 0 < weak <= strong * (1 + 1e-12)


class TestHolderPairing:
    def test_cauchy_schwarz_saturation(self):
        g = GridSpec(1, 8.0, 256)
        times = np.linspace(-2.0, 2.0, 17)
        F = _random_stf(g, times, 31)
        win = unit_cube_partition()
        pairing, bound, holds = holder_pairing(F, F, 2, 2, 2, 2, win, win)
        assert holds
        assert pairing == pytest.approx(bound, rel=1e-10)

    def test_disjoint_supports(self):
        g = GridSpec(1, 8.0, 256)
        times = np.linspace(-1.0, 1.0, 9)
        x = g.axis_points()
        left = SampledField(g, np.where(x < -1, 1.0 + 0j, 0))
        right = SampledField(g, np.where(x > 1, 1.0 + 0j, 0))
        F = SpaceTimeField(g, times, np.array([left.values] * 9))
        G = SpaceTimeField(g, times, np.array([right.values] * 9))
        win = unit_cube_partition()
        pairing, bound, holds = holder_pairing(F, G, 2, 4, 2, 6, win, win)
        assert pairing == 0.0
        assert bound > 0
        assert holds

    def test_random_pairs_constant_one(self):
        g = GridSpec(1, 4.0, 128)
        times = np.linspace(-2.0, 2.0, 9)
        win = unit_cube_partition()
        for seed in range(500):
            F = _random_stf(g, times, 13 * seed)
            G = _random_stf(g, times, 7000 + 13 * seed)
            pairing, bound, holds = holder_pairing(F, G, 2, 4, 2, 6, win, win)
            assert holds, (seed, pairing, bound)

    def test_rejects_non_partition_window(self):
        g = GridSpec(1, 4.0, 128)
        times = np.linspace(-1.0, 1.0, 5)
        F = _random_stf(g, times, 1)
        smooth = WindowSpec("gaussian", radius=0.5, step=1.0)
        with pytest.raises(ValueError):
            holder_pairing(F, F, 2, 2, 2, 2, smooth, unit_cube_partition())


class TestInterpolateExponents:
    def test_reciprocal_average(self):
        p, q = interpolate_exponents(2, 2, "inf", "inf", Fraction(1, 2))
        assert (p, q) == (Fraction(4), Fraction(4))

    def test_exact_rationals(self):
        p, q = interpolate_exponents(3, 5, 7, 2, Fraction(1, 3))
        assert p == Fraction(63, 13)  # 1/p = (1/3)/3 + (2/3)/7 = 13/63
        assert q == Fraction(5, 2)    # 1/q = (1/3)/5 + (2/3)/2 = 2/5

    def test_endpoint_theta_rejected(self):
        for theta in (0, 1, Fraction(3, 2), -1):
            with pytest.raises(ValueError):
                interpolate_exponents(2, 2, 4, 4, theta)

    def test_double_infinity_rejected(self):
        with pytest.raises(ValueError):
            interpolate_exponents(2, "inf", 4, "inf", Fraction(1, 2))

    @given(st.integers(2, 40), st.integers(2, 40), st.integers(2, 40),
           st.integers(2, 40), st.integers(1, 9))
    @settings(max_examples=200, deadline=None)
    def test_reciprocal_affine_identity(self, p0, q0, p1, q1, knum):
        theta = Fraction(knum, 10)
        p, q = interpolate_exponents(p0, q0, p1, q1, theta)
        assert Fraction(1, 1) / p == theta / p0 + (1 - theta) / p1
        assert Fraction(1, 1) / q == theta / q0 + (1 - theta) / q1


class TestInclusion:
    def test_holds_on_random(self, grid1d):
        win = unit_cube_partition()
        for seed in range(100):
            f = band_limited_field(grid1d, seed)
            lhs, rhs, ok = inclusion_check(f, np.inf, 1, 1, np.inf, win)
            assert ok, (seed, lhs, rhs)

    def test_equal_exponents_equality(self, grid1d):
        f = band_limited_field(grid1d, 2)
        lhs, rhs, ok = inclusion_check(f, 2, 4, 2, 4, unit_cube_partition())
        assert ok and lhs == pytest.approx(rhs, rel=1e-12)

    def test_spike_strict(self, grid1d):
        f = spike_field(grid1d, 0)
        lhs, rhs, ok = inclusion_check(f, np.inf, 1, 1, np.inf, unit_cube_partition())
        assert ok
        assert lhs < rhs * 0.9  # local-norm collapse makes it strict

    def test_wrong_order_rejected(self, grid1d):
        f = band_limited_field(grid1d, 2)
        with pytest.raises(ValueError):
            inclusion_check(f, 1, 4, 2, 4, unit_cube_partition())

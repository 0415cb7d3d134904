import math
import tracemalloc

import numpy as np
import pytest

from amalgam import wiener
from amalgam.grid import (
    GridSpec,
    SampledField,
    SpaceTimeField,
    _lq,
    lebesgue_norm,
    trapezoid_weights,
)
from amalgam.wiener import (
    WindowSpec,
    _amalgam_norms,
    _offset_slabs,
    _translate_shape,
    _window_blocks,
    amalgam_norm,
    holder_pairing,
    spacetime_amalgam_norm,
    unit_cube_partition,
    weak_lorentz_norm,
)
from amalgam.propagator import evolve_blocks
from amalgam.verify import (
    band_limited_field,
    band_limited_stack,
    default_ratio_times,
    gaussian_datum,
    modulated_gaussian,
    spike_field,
)


def brute_force_window(g, window, idx):
    """The window of translate idx (centered at idx * step), with explicit distance
    arithmetic on the periodic lattice."""
    L, dx = g.length, g.dx
    s = int(round(window.step / dx))
    mesh = np.meshgrid(*[g.axis_points()] * g.n, indexing="ij")
    center = [((L + i * s * dx) % (2 * L)) - L for i in idx]
    disp = [((c - c0 + L) % (2 * L)) - L for c, c0 in zip(mesh, center)]
    if window.kind == "cube-indicator":
        # half-open cube so translates tile lattice points exactly
        inside = np.ones_like(disp[0], dtype=bool)
        for d in disp:
            inside &= (d >= -window.radius) & (d < window.radius)
        phi = inside.astype(float)
    else:
        phi = window.profile(np.sqrt(sum(d ** 2 for d in disp)))
    if window.normalization == "l2":
        ref = [((c + L) % (2 * L)) - L for c in mesh]
        if window.kind == "cube-indicator":
            dref = np.max(np.stack([np.abs(d) for d in ref]), axis=0)
        else:
            dref = np.sqrt(sum(d ** 2 for d in ref))
        phi = phi / np.sqrt(np.sum(window.profile(dref) ** 2) * g.cell_volume)
    return phi


def brute_force_amalgam(fld, p, q, window):
    """Translate-by-translate oracle with explicit distance arithmetic."""
    g = fld.grid
    K = int(round(2 * g.length / window.step))
    locals_ = []
    for flat in range(K ** g.n):
        phi = brute_force_window(g, window, np.unravel_index(flat, (K,) * g.n))
        prod = np.abs(fld.values * phi)
        if math.isinf(p):
            locals_.append(prod.max())
        else:
            locals_.append((np.sum(prod ** p) * g.cell_volume) ** (1 / p))
    locals_ = np.array(locals_)
    if math.isinf(q):
        return locals_.max()
    return (window.step ** g.n * np.sum(locals_ ** q)) ** (1 / q)


def block_built_window(window, g, p=2.0, q=2.0):
    """The window on the whole grid, assembled from the blocks the norm visits."""
    s, K = _translate_shape(window, g)
    out = np.zeros(g.shape)
    blocks = out.reshape((K, s) * g.n)
    kept, phi = _window_blocks(window, g, p, q)
    for j, w in zip(kept, phi(slice(None))):
        blocks[tuple(x for k in j for x in (k, slice(None)))] = w
    return out


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
            amalgam_norm(SampledField(g, np.ones(g.shape)), 2, 2, win)

    def test_l2_normalization(self, grid1d):
        win = WindowSpec("gaussian", radius=0.7, step=1.0)
        phi = block_built_window(win, grid1d)
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
    # half-open cube conventions select the same samples; the unit-cube
    # partition is the single-block case of the same reduction
    SMOOTH_WINDOWS = {
        "gaussian": WindowSpec("gaussian", radius=0.7, step=1.0),
        "smooth-bump": WindowSpec("smooth-bump", radius=1.5, step=1.0),
        "cube-indicator": WindowSpec("cube-indicator", radius=0.6, step=1.0),
        "cube-partition": unit_cube_partition(),
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

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    @pytest.mark.parametrize("kind", sorted(SMOOTH_WINDOWS))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_item_slabs_match_brute_force(self, monkeypatch, n, kind, p):
        # each of these grids fits in one slab; with one item per slab, every slice spans
        # many slabs, and the parts of every slab and window block fold into one norm
        monkeypatch.setattr(wiener, "_blocks",
                            lambda count, size: [slice(i, i + 1) for i in range(count)])
        g = self.SMALL_GRIDS[n]
        win = self.SMOOTH_WINDOWS[kind]
        rng = np.random.default_rng(n)
        f = SampledField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        for q in (4, np.inf):
            got = amalgam_norm(f, p, q, win).value
            assert got == pytest.approx(brute_force_amalgam(f, p, q, win), rel=1e-12)

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

    @pytest.mark.parametrize("kind", ["gaussian", "smooth-bump", "cube-indicator"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_block_built_window_matches_brute_force(self, n, kind):
        # the blocks the norm visits, put together, are the window of translate 0; the
        # gaussian's dropped blocks hold values below 1e-16 of its peak
        g = self.SMALL_GRIDS[n]
        win = self.SMOOTH_WINDOWS[kind]
        want = brute_force_window(g, win, (0,) * n)
        got = block_built_window(win, g)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-16 * want.max())

    @pytest.mark.parametrize("p", [2, 40, np.inf])
    def test_gaussian_skips_negligible_blocks(self, monkeypatch, p):
        # radius 0.5 on 128^2 (s = 2, K = 64): the blocks where phi is non-zero number
        # 1212, but far fewer carry a share of 1e-16 of the norm, at any p
        g = GridSpec(2, 32.0, 128)
        f = band_limited_field(g, 5)
        win = WindowSpec("gaussian", radius=0.5, step=1.0)
        got = amalgam_norm(f, p, 4, win)
        monkeypatch.setattr(wiener, "_NEGLIGIBLE", 0.0)
        every = amalgam_norm(f, p, 4, win)
        assert every.meta["window_blocks"] == 1212
        assert got.meta["window_blocks"] < 100
        assert got.value == pytest.approx(every.value, rel=1e-15, abs=0)

    def test_many_blocks_memory_stays_bounded(self):
        # s = 2 and K^2 = 4096 blocks, about 800 of them under the bump: keeping one
        # K^2-sized result per block would take about 26 MB.  Here the whole slice is one
        # slab: |f| in it, its product with one window block, the window on its rows for
        # every block that counts and the K^2-sized results set the peak.
        g = GridSpec(2, 32.0, 128)
        f = band_limited_field(g, 5)
        win = WindowSpec("smooth-bump", radius=16.0, step=1.0)
        tracemalloc.start()
        try:
            got = amalgam_norm(f, 2, 4, win)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.meta["window_blocks"] > 500
        assert np.isfinite(got.value) and got.value > 0
        assert peak < 3 * f.values.nbytes

    @pytest.mark.parametrize("win", [unit_cube_partition(),
                                     WindowSpec("smooth-bump", radius=1.0, step=1.0),
                                     WindowSpec("gaussian", radius=0.25, step=1.0)],
                             ids=["cube", "bump", "gaussian"])
    def test_memory_per_lattice_point(self, win):
        # |f| is never held whole: beyond the field's 16 bytes per point, one slab of 2^16
        # samples of |f| (2 of the 8 first-axis offsets at 64^3, 0.5 MiB), its product
        # with one window block, the window on the slab's rows for every block that
        # counts, and the ufunc buffers: 0.18 (cube), 0.27 (bump) and 0.32 (gaussian, 160
        # blocks) of the field, where |f| alone would be 0.5
        g = GridSpec(3, 4.0, 64)
        f = band_limited_field(g, 5)
        tracemalloc.start()
        try:
            amalgam_norm(f, 2, 4, win)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.35 * f.values.nbytes

    @pytest.mark.parametrize("win", [unit_cube_partition(),
                                     WindowSpec("smooth-bump", radius=1.0, step=1.0),
                                     WindowSpec("gaussian", radius=0.25, step=1.0)],
                             ids=["cube", "bump", "gaussian"])
    def test_real_memory_per_lattice_point(self, win):
        # a real datum, built and reduced under one trace: its 8 bytes per point, and the
        # slabs of the complex case, 2.5 to 5 bytes per point at 64^3; a whole |f| would
        # add 8
        g = GridSpec(3, 4.0, 64)
        tracemalloc.start()
        try:
            f = gaussian_datum(g)
            amalgam_norm(f, 2, 4, win)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.values.dtype == np.float64
        assert peak <= 14 * g.size

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
        # the radius-0.5 gaussian over the unit-cube window norm, on the seed-2026
        # calibration corpus of 200 band-limited fields; recorded, not derived
        g = GridSpec(1, 16.0, 512)
        stack = band_limited_stack(g, range(2026, 2226))
        gauss = WindowSpec("gaussian", radius=0.5, step=1.0, normalization="l2")
        ratios = (_amalgam_norms(stack, 2, 4, gauss, g)[0]
                  / _amalgam_norms(stack, 2, 4, unit_cube_partition(), g)[0])
        assert 0.97 <= ratios.min() <= ratios.max() <= 1.02
        assert len(ratios) == 200


class TestWeakLorentz:
    def test_extremal_sequence(self):
        for p in (0.5, 1.0, 2.5):
            m = np.arange(1, 301)
            seq = m ** (-1.0 / p)
            assert weak_lorentz_norm(seq, p) == pytest.approx(1.0, rel=1e-12)

    def test_zero_and_empty(self):
        assert weak_lorentz_norm(np.zeros(10), 2) == 0.0
        assert weak_lorentz_norm([], 2) == 0.0

    def test_single_term_equals_strong(self):
        seq = np.zeros(20)
        seq[7] = 3.5
        for p in (1, 2, 4):
            assert weak_lorentz_norm(seq, p) == pytest.approx(3.5)

    def test_weak_below_strong_on_random(self, rng):
        for _ in range(500):
            seq = rng.standard_normal(rng.integers(1, 60))
            for p in (1.0, 2.0, 3.5):
                weak = weak_lorentz_norm(seq, p)
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
    def test_single_slice_reduces_to_spatial(self, rng):
        g = GridSpec(1, 8.0, 256)
        f = band_limited_field(g, 3)
        stf = SpaceTimeField(g, np.array([0.2]), np.array([f.values]))
        win = unit_cube_partition()
        got = spacetime_amalgam_norm([stf.values], g, stf.times, 2, 4, 2, 6)
        spatial = amalgam_norm(f, 2, 6, unit_cube_partition()).value
        assert got == pytest.approx(spatial, rel=1e-12)  # unit time-window factor

    def test_brute_force_small_case(self):
        # nested-loop oracle over time translates and slices; the second set of instants
        # leaves cubes empty between them and puts instants on the cube edges k +- 1/2
        g = GridSpec(1, 4.0, 128)
        win = unit_cube_partition()
        qt, q, rt, r = 3, 5, 2, 4
        from amalgam.grid import trapezoid_weights
        for times in (np.linspace(-2.0, 2.0, 17),
                      np.array([-3.2, -2.5, 0.1, 0.4, 0.5, 2.49, 2.5, 7.0])):
            stf = _random_stf(g, times, 23)
            w = trapezoid_weights(times)
            spatial = np.array([brute_force_amalgam(SampledField(g, stf.values[k]), rt, r, win)
                                for k in range(len(times))])
            ks = sorted({int(np.floor(t + 0.5)) for t in times})
            locs = []
            for k in ks:
                mask = (times >= k - 0.5) & (times < k + 0.5)
                locs.append(np.sum(w[mask] * spatial[mask] ** qt) ** (1 / qt))
            want = float(np.sum(np.asarray(locs) ** q) ** (1 / q))
            got = spacetime_amalgam_norm([stf.values], g, times, qt, q, rt, r)
            assert got == pytest.approx(want, rel=1e-10)

    # the ids keep the "spacetime" of the strong outer norm from when a weak one was an
    # option, so each case keeps its name
    @pytest.mark.parametrize("slices", [3, 7], ids=["spacetime-3", "spacetime-7"])
    def test_slices_must_match_instants(self, slices):
        # a slice count other than the instant count is refused, not cut or mis-indexed
        g = GridSpec(1, 4.0, 64)
        with pytest.raises(ValueError, match=f"^{slices} slices for 5 instants$"):
            spacetime_amalgam_norm([np.ones((slices, 64))], g, np.linspace(0.0, 1.0, 5),
                                   2, 4, 2, 4)

    @pytest.mark.parametrize("times, match", [
        ([0.0, 2.0, 1.0], "strictly increasing"),
        ([1.0, 0.5, 0.0], "strictly increasing"),
        ([0.0, np.nan, 1.0], "finite, got nan at index 1"),
    ], ids=["unsorted", "decreasing", "nan"])
    def test_instants_are_checked(self, times, match):
        # each is refused with its own message before any slice is reduced
        g = GridSpec(1, 4.0, 64)
        with pytest.raises(ValueError, match=match):
            spacetime_amalgam_norm([np.ones((3, 64))], g, times, 2, 4, 2, 4)

    @pytest.mark.parametrize("exps", [(0.5, 2, 2, 2), (2, 0.5, 2, 2), (2, 2, 0.5, 2),
                                      (2, 2, 2, 0.5)])
    def test_exponents_below_one_refused(self, exps):
        g = GridSpec(1, 4.0, 64)
        with pytest.raises(ValueError, match=r"exponents must lie in \[1, inf\]"):
            spacetime_amalgam_norm([np.ones((3, 64))], g, np.linspace(0.0, 1.0, 3), *exps)

    def test_log_convex_in_the_four_reciprocals(self):
        # a four-level mixed norm: Holder's inequality at each level makes log ||u||
        # convex along every line in (1/qt, 1/q, 1/rt, 1/r); the first lines start at
        # corners, where reciprocals are 0 (inf) or 1
        g = GridSpec(1, 16.0, 1024)
        times = default_ratio_times(t_outer=8.0)
        blocks = [block for _, block in evolve_blocks(modulated_gaussian(g, mode=40), times)]
        rng = np.random.default_rng(3)
        for k in range(24):
            u0, u1 = rng.random((2, 4))
            if k < 6:
                u0 = np.round(u0)
            theta = 0.05 + 0.9 * rng.random()
            logs = [np.log(spacetime_amalgam_norm(
                        blocks, g, times, *(1 / float(x) if x else math.inf for x in u)))
                    for u in (u0, u1, (1 - theta) * u0 + theta * u1)]
            assert logs[2] <= (1 - theta) * logs[0] + theta * logs[1] + 1e-12, (k, logs)


class TestHolderPairing:
    def test_cauchy_schwarz_saturation(self):
        g = GridSpec(1, 8.0, 256)
        times = np.linspace(-2.0, 2.0, 17)
        F = _random_stf(g, times, 31)
        pairing, bound, holds = holder_pairing(F, F, 2, 2, 2, 2)
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
        pairing, bound, holds = holder_pairing(F, G, 2, 4, 2, 6)
        assert pairing == 0.0
        assert bound > 0
        assert holds

    @pytest.mark.parametrize("g", [GridSpec(1, 4.0, 64), GridSpec(2, 2.0, 16)], ids=["n1", "n2"])
    @pytest.mark.parametrize("exps", [(2, 4, 2, 6), (3, 5, 1.5, 2.5), (1.5, 1.5, 4, 4)])
    def test_extremal_attains_constant_one(self, g, exps):
        times = np.linspace(-2.0, 2.0, 9)
        rng = np.random.default_rng(g.n)
        F = SpaceTimeField(g, times, 0.1 + rng.random(times.shape + g.shape))
        pairing, bound, holds = holder_pairing(F, holder_extremal(F, *exps), *exps)
        assert holds
        assert pairing / bound == pytest.approx(1.0, rel=1e-12)

    def test_random_pairs_constant_one(self):
        g = GridSpec(1, 4.0, 128)
        times = np.linspace(-2.0, 2.0, 9)
        for seed in range(500):
            F = _random_stf(g, times, 13 * seed)
            G = _random_stf(g, times, 7000 + 13 * seed)
            pairing, bound, holds = holder_pairing(F, G, 2, 4, 2, 6)
            assert holds, (seed, pairing, bound)


def holder_extremal(F, qt, q, rt, r):
    """The G with |<F, G>| = ||F|| ||G||' for F >= 0 (Benedek-Panzone): each nested Holder
    step is an equality when G = F^(rt-1) A^(r-rt) B^(qt-r) C^(q-qt), with A, B and C the
    partial norms of F over a space cube, over all space, and over a time cube."""
    g, a = F.grid, F.values.real
    K = round(2 * g.length)
    # the space cube of each point, mod K: the edge cube [L - 1/2, L) u [-L, -L + 1/2) wraps
    axis = np.floor(g.axis_points() + 0.5).astype(int) % K
    cube = np.ravel_multi_index(np.ix_(*(axis,) * g.n), (K,) * g.n).ravel()
    flat = a.reshape(len(F.times), -1)
    A = np.array([np.bincount(cube, row ** rt * g.cell_volume, K ** g.n)
                  for row in flat]) ** (1 / rt)
    B = np.sum(A ** r, axis=1) ** (1 / r)
    k = np.floor(F.times + 0.5).astype(int)  # time cubes [k - 1/2, k + 1/2) do not wrap
    C = np.bincount(k - k.min(), trapezoid_weights(F.times) * B ** qt) ** (1 / qt)
    outer = B ** (qt - r) * C[k - k.min()] ** (q - qt)
    G = flat ** (rt - 1) * A[:, cube] ** (r - rt) * outer[:, None]
    return SpaceTimeField(g, F.times, G.reshape(a.shape))


def inclusion_check(f, p1, q1, p2, q2):
    """W(L^p1, L^q1) into W(L^p2, L^q2) on unit cubes for one field: the suite's check."""
    lhs = amalgam_norm(f, p2, q2, unit_cube_partition()).value
    rhs = amalgam_norm(f, p1, q1, unit_cube_partition()).value
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-10) + 1e-12


class TestInclusion:
    def test_holds_on_random(self, grid1d):
        for seed in range(100):
            f = band_limited_field(grid1d, seed)
            lhs, rhs, ok = inclusion_check(f, np.inf, 1, 1, np.inf)
            assert ok, (seed, lhs, rhs)

    def test_equal_exponents_equality(self, grid1d):
        f = band_limited_field(grid1d, 2)
        lhs, rhs, ok = inclusion_check(f, 2, 4, 2, 4)
        assert ok and lhs == pytest.approx(rhs, rel=1e-12)

    def test_spike_strict(self, grid1d):
        f = spike_field(grid1d, 0)
        lhs, rhs, ok = inclusion_check(f, np.inf, 1, 1, np.inf)
        assert ok
        assert lhs < rhs * 0.9  # local-norm collapse makes it strict

    def test_wrong_order_rejected(self, grid1d):
        # p1 < p2: on a unit cube the local L^1 norm is below the L^2 norm, strictly
        # unless |f| is constant there, so the comparison fails
        f = band_limited_field(grid1d, 2)
        lhs, rhs, ok = inclusion_check(f, 1, 4, 2, 4)
        assert not ok and lhs > rhs


@pytest.mark.parametrize("g", [GridSpec(1, 8.0, 4096), GridSpec(2, 8.0, 64),
                               GridSpec(3, 4.0, 16)])
@pytest.mark.parametrize("window", [unit_cube_partition(),
                                    WindowSpec("gaussian", radius=0.5, step=1.0)])
@pytest.mark.parametrize("p,q", [(2, 2), (2, 4), (3, 10 / 3), (math.inf, 2)])
def test_batched_norms_are_the_single_norms(g, window, p, q):
    # exactly, not closely: seed 1495 at N = 4096 is a case where a sqrt and a pow
    # root of the same sum differ by an ulp
    stack = band_limited_stack(g, [1495, 5, 4000])
    batched, _ = _amalgam_norms(stack, p, q, window, g)
    lebesgue = _lq(np.abs(stack), p, tuple(range(1, g.n + 1)), g.cell_volume)
    for k, row in enumerate(stack):
        assert batched[k] == amalgam_norm(SampledField(g, row), p, q, window).value
        assert lebesgue[k] == lebesgue_norm(SampledField(g, row), p).value


@pytest.mark.parametrize("g,k", [(GridSpec(1, 16.0, 512), 120), (GridSpec(2, 4.0, 32), 8),
                                 (GridSpec(3, 2.0, 16), 4), (GridSpec(1, 8.0, 4096), 55)])
@pytest.mark.parametrize("window", [unit_cube_partition(),
                                    WindowSpec("smooth-bump", radius=1.0, step=1.0)])
def test_large_batch_equals_single_field_calls(g, k, window):
    # at n = 1 the property suite's layout: one (k, 512) stack, zero rows included; 55
    # slices of 4096 samples fill 55 slabs, and when the slabs followed the batch size
    # some of those slices' norms rounded apart from their one-at-a-time norms
    stack = band_limited_stack(g, range(k))
    stack[::4] = 0.0
    for p in (1.0, 2.0, 4.0, math.inf):
        for q in (1.0, 2.0, 4.0, math.inf):
            batched, _ = _amalgam_norms(stack, p, q, window, g)
            single = [_amalgam_norms(row, p, q, window, g)[0] for row in stack]
            assert batched.shape == (k,)
            assert np.array_equal(batched, single), (p, q)


@pytest.mark.parametrize("n,K,s", [(1, 5, 4), (2, 3, 5), (3, 2, 3), (2, 1, 4), (1, 4, 1)])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "batch"])
def test_offset_slabs_are_rows_of_the_offset_major_array(monkeypatch, n, K, s, lead):
    # |values| at lattice point k s + r - h (mod N) on each axis, offsets first and blocks
    # last, built whole with np.roll, reshape and transpose; each slab the builder
    # writes must be exactly its rows, for every slab size, dividing s or not
    m, N = len(lead), K * s
    rng = np.random.default_rng(7)
    values = rng.standard_normal(lead + (N,) * n) + 1j * rng.standard_normal(lead + (N,) * n)
    # axis m + 2i is axis i's block and m + 2i + 1 its offset in the block
    order = list(range(m)) + [m + 2 * i + 1 for i in range(n)] + [m + 2 * i for i in range(n)]
    for h in sorted({0, s // 2}):
        rolled = np.roll(np.abs(values), h, axis=tuple(range(m, m + n)))
        want = rolled.reshape(lead + (K, s) * n).transpose(order).reshape(
            lead + (s, s ** (n - 1), K ** n))
        for step in range(1, s + 2):
            monkeypatch.setattr(wiener, "_blocks", lambda count, size: [
                slice(i, i + step) for i in range(0, count, step)])
            offsets = []
            for r, F in _offset_slabs(values, n, K, s, h):
                assert np.array_equal(F, want[..., r, :, :].reshape(lead + (-1, K ** n)))
                offsets += range(s)[r]
            assert offsets == list(range(s)), (h, step)

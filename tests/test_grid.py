import struct
import tracemalloc

import numpy as np
import pytest

from amalgam.grid import (
    GridSpec,
    SampledField,
    SpaceTimeField,
    _blocks,
    _euclidean,
    _lq,
    _shells,
    lebesgue_norm,
    read_container,
    trapezoid_weights,
    write_container,
)
from amalgam.propagator import _propagate, _spectrum, hsigma_norm
from amalgam.verify import band_limited_field
from amalgam.wiener import WindowSpec, amalgam_norm, spacetime_amalgam_norm, unit_cube_partition


def random_field(grid, rng):
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return SampledField(grid, vals)


def transform(fld, direction):
    """The package's one transform pair on one field: "forward" is the Fourier
    coefficients fftn / N^n of propagator._spectrum at sigma = 0, "inverse" the bare sum
    of propagator._propagate at t = 0, where every multiplier is exactly 1."""
    g = fld.grid
    if direction == "forward":
        return SampledField(g, _spectrum(fld.values, 0.0, g))
    return SampledField(g, _propagate(np.array(fld.values, dtype=complex), [0.0], g)[0])


def write_spacetime(stf, path):
    write_container(path, stf.grid, stf.times, [stf.values])


class TestMakeGrid:
    def test_spacing(self):
        g = GridSpec(1, 16, 1024)
        assert g.dx == pytest.approx(0.03125)

    def test_frequency_step_2d(self):
        g = GridSpec(2, 8, 64)
        assert g.shape == (64, 64)
        assert g.dxi == pytest.approx(np.pi / 8)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec(1, 16, 1000)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            GridSpec(4, 16, 64)
        with pytest.raises(ValueError):
            GridSpec(0, 16, 64)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            GridSpec(1, 16, 4)

    def test_frequency_lattice_symmetric(self):
        g = GridSpec(1, 4, 16)
        xi = np.sort(g.axis_frequencies())
        # symmetric about 0 except the single unpaired mode -N/2
        assert xi[0] == pytest.approx(-g.dxi * 8)
        assert np.allclose(xi[1:], -xi[1:][::-1])


class TestTransform:
    """The bare transform: no lattice constant and no phase; the norms' weights carry them."""

    def test_roundtrip(self, grid1d, rng):
        f = random_field(grid1d, rng)
        back = transform(transform(f, "forward"), "inverse")
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_constant_supported_at_zero(self, grid1d):
        f = SampledField(grid1d, np.full(grid1d.shape, 2.0 + 0.0j))
        spec = transform(f, "forward").values
        nonzero = np.abs(spec) > 1e-10 * np.abs(spec).max()
        assert nonzero.sum() == 1
        assert nonzero[0]  # index 0 is the zero frequency

    def test_pure_mode_single_coefficient(self, grid1d):
        j = 7
        xi = grid1d.axis_frequencies()[j]
        f = SampledField(grid1d, np.exp(1j * xi * grid1d.axis_points()))
        spec = transform(f, "forward").values
        mags = np.abs(spec)
        # a unit-modulus mode is one unit coefficient
        assert mags[j] == pytest.approx(1.0, rel=1e-12)
        mags[j] = 0.0
        assert mags.max() < 1e-9

    def test_parseval(self, grid1d, grid2d, rng):
        # spectral l2 with the grid module's weight dx^n N^n equals the Riemann L2 norm
        for g in (grid1d, grid2d):
            w = g.cell_volume * g.size
            for _ in range(100):
                f = random_field(g, rng)
                spec = transform(f, "forward").values
                spectral = np.sqrt(np.sum(np.abs(spec) ** 2) * w)
                assert spectral == pytest.approx(lebesgue_norm(f, 2).value, rel=1e-12)

    def test_linear(self, grid1d, rng):
        f, g = random_field(grid1d, rng), random_field(grid1d, rng)
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        comb = SampledField(grid1d, a * f.values + b * g.values)
        lhs = transform(comb, "forward").values
        rhs = a * transform(f, "forward").values + b * transform(g, "forward").values
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_roundtrip_2d(self, grid2d, rng):
        f = random_field(grid2d, rng)
        back = transform(transform(f, "forward"), "inverse")
        assert np.max(np.abs(back.values - f.values)) < 1e-12


@pytest.mark.parametrize("g", [GridSpec(1, 8.0, 64), GridSpec(2, 4.0, 32), GridSpec(3, 4.0, 16)],
                         ids=lambda g: f"n{g.n}")
class TestCachedLattice:
    def test_shells_rebuild_the_radii(self, g):
        uniq, inv = _shells(g)
        radii = np.sqrt(sum(c ** 2 for c in np.ix_(*(g.axis_points(),) * g.n)))
        assert np.array_equal(uniq[inv], radii.ravel())
        assert np.all(np.diff(uniq) > 0)
        assert _shells(GridSpec(g.n, g.length, g.npts))[1] is inv

    def test_euclidean_matches_the_summed_squares(self, g):
        # the output is allocated whole and the squares added in axis order, so the
        # radii equal those of the broadcast sum bit for bit, on unequal axes too
        for axes in ((g.axis_points(),) * g.n,
                     [g.axis_frequencies()[:g.npts - k] for k in range(g.n)]):
            want = np.sqrt(sum(c ** 2 for c in np.ix_(*axes)))
            assert np.array_equal(_euclidean(*axes), want)

    def test_cached_arrays_are_read_only(self, g):
        for a in _shells(g):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0


class TestLebesgueNorm:
    def test_unit_cube_indicator(self):
        g = GridSpec(1, 16, 2048)
        x = g.axis_points()
        f = SampledField(g, ((x >= 0) & (x < 1)).astype(complex))
        assert lebesgue_norm(f, 2).value == pytest.approx(1.0, abs=2 * g.dx)

    def test_zero_field(self, grid1d):
        f = SampledField(grid1d, np.zeros(grid1d.shape))
        assert lebesgue_norm(f, 3).value == 0.0

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    @pytest.mark.parametrize("p", [1, 2, 3, 7.5, np.inf])
    def test_extreme_magnitudes_stay_finite(self, grid1d, p, scale):
        # |f| = scale on a box of measure 2L: the norm is scale (2L)^(1/p), where
        # |f|^p alone is beyond float64 (overflow at 1e300, zero at 1e-300)
        f = SampledField(grid1d, np.full(grid1d.shape, scale * (0.6 - 0.8j)))
        want = scale * (2 * grid1d.length) ** (1 / p)
        assert lebesgue_norm(f, p).value == pytest.approx(want, rel=1e-13, abs=0)
        # every other norm is homogeneous too: W(L^p, L^p) = L^p on unit cubes,
        # H^0 = L^2, and a smooth window gives scale times its unit-scale value
        assert amalgam_norm(f, p, p, unit_cube_partition()).value == pytest.approx(
            want, rel=1e-13, abs=0)
        assert hsigma_norm(f, 0).value == pytest.approx(
            scale * (2 * grid1d.length) ** 0.5, rel=1e-13, abs=0)
        bump = WindowSpec("smooth-bump", radius=1.0, step=1.0)
        unit = SampledField(grid1d, np.full(grid1d.shape, 0.6 - 0.8j))
        assert amalgam_norm(f, p, 2, bump).value == pytest.approx(
            scale * amalgam_norm(unit, p, 2, bump).value, rel=1e-13, abs=0)

    def test_matches_unscaled_sum(self, grid2d, rng):
        # the peak scaling regroups nothing: same Riemann sum to rounding
        f = random_field(grid2d, rng)
        for p in (1, 2, 3.5):
            want = (np.sum(np.abs(f.values) ** p) * grid2d.cell_volume) ** (1 / p)
            assert lebesgue_norm(f, p).value == pytest.approx(want, rel=1e-13, abs=0)

    def test_p_infinity_is_lattice_max(self, grid1d, rng):
        f = random_field(grid1d, rng)
        assert lebesgue_norm(f, np.inf).value == np.abs(f.values).max()

    def test_rejects_p_below_one(self, grid1d, rng):
        for p in (0.5, -np.inf):
            with pytest.raises(ValueError):
                lebesgue_norm(random_field(grid1d, rng), p)

    def test_against_refined_riemann_sum(self):
        # band-limited field evaluated on N and 2N lattices: the two
        # Riemann sums of |f|^3 must agree closely
        def probe(npts):
            g = GridSpec(1, 16, npts)
            x = g.axis_points()
            vals = np.exp(-(x ** 2) / 3.0) * (1.0 + 0.5 * np.cos(2.0 * np.pi * x / 16.0))
            return lebesgue_norm(SampledField(g, vals), 3).value

        coarse, fine = probe(256), probe(512)
        assert coarse == pytest.approx(fine, rel=1e-3)

    def test_monotone_in_p_on_unit_measure(self, rng):
        # ||f||_p <= M^(1/p - 1/s) ||f||_s for p <= s on total measure M
        g = GridSpec(1, 16, 256)
        M = 2.0 * g.length
        for _ in range(50):
            f = random_field(g, rng)
            for p, s in ((1, 2), (2, 4), (3, np.inf)):
                lhs = lebesgue_norm(f, p).value
                rhs = lebesgue_norm(f, s).value
                fac = M ** ((1.0 / p) - (1.0 / s if s != np.inf else 0.0))
                assert lhs <= fac * rhs * (1 + 1e-12)


class TestMixedNorm:
    """The classical L^q_t L^r_x norm is the space-time amalgam norm at qt = q, rt = r."""

    def test_single_slice(self, grid1d, rng):
        f = random_field(grid1d, rng)
        stf = SpaceTimeField(grid1d, np.array([0.7]), np.array([f.values]))
        for q in (1, 2, 7):
            got = spacetime_amalgam_norm([stf.values], grid1d, stf.times, q, q, 2, 2)
            assert got == pytest.approx(lebesgue_norm(f, 2).value, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_extreme_magnitudes_stay_finite(self, grid1d, scale):
        # |f| = scale on [-L, L) x [0, 2]: the L^q_t L^r_x norm is scale (2L)^(1/r) 2^(1/q)
        times = np.linspace(0.0, 2.0, 5)
        stf = SpaceTimeField(grid1d, times, np.full((5,) + grid1d.shape, scale + 0j))
        unit = SpaceTimeField(grid1d, times, np.ones((5,) + grid1d.shape, dtype=complex))
        for q, r in ((2, 2), (3, 1.5), (np.inf, 4)):
            want = scale * (2 * grid1d.length) ** (1 / r) * 2 ** (1 / q)
            got = spacetime_amalgam_norm([stf.values], grid1d, times, q, q, r, r)
            assert got == pytest.approx(want, rel=1e-13, abs=0)
            got = spacetime_amalgam_norm([stf.values], grid1d, times, q, 4, 2, r)
            assert got == pytest.approx(
                scale * spacetime_amalgam_norm([unit.values], grid1d, times, q, 4, 2, r),
                rel=1e-13, abs=0)

    def test_q2_r2_is_flat_l2(self, grid1d, rng):
        # brute force: L^2 in time, trapezoid weights, of each slice's L^r norm, over
        # seven time cubes; r = 4 is L^2_t L^4_x
        times = np.linspace(-3.0, 3.0, 25)
        slices = [random_field(grid1d, rng) for _ in times]
        stf = SpaceTimeField(grid1d, times, np.array([s.values for s in slices]))
        w = trapezoid_weights(times)
        for r in (2, 4):
            got = spacetime_amalgam_norm([stf.values], grid1d, times, 2, 2, r, r)
            flat = np.sqrt(sum(
                wi * lebesgue_norm(s, r).value ** 2 for wi, s in zip(w, slices)))
            assert got == pytest.approx(flat, rel=1e-12)

    def test_time_constant_over_unit_interval(self, grid1d, rng):
        f = random_field(grid1d, rng)
        times = np.linspace(0.0, 1.0, 33)
        stf = SpaceTimeField(grid1d, times, np.array([f.values] * len(times)))
        got = spacetime_amalgam_norm([stf.values], grid1d, times, 4, 4, 2, 2)
        assert got == pytest.approx(lebesgue_norm(f, 2).value, rel=1e-12)


class TestSerialization:
    def test_spacetime_roundtrip(self, grid1d, rng, tmp_path, unpack_container):
        times = np.array([-1.0, 0.25, 3.0])
        stf = SpaceTimeField(grid1d, times, np.array([random_field(grid1d, rng).values
                                                      for _ in times]))
        path = tmp_path / "field.bin"
        write_spacetime(stf, path)
        grid, back, values = unpack_container(path)
        assert grid == grid1d
        assert np.array_equal(back, times)
        assert np.array_equal(values, stf.values)
        grid, back, first = read_container(path)
        assert grid == grid1d and np.array_equal(back, times)
        assert np.array_equal(first, stf.values[0])

    def test_single_field_roundtrip(self, grid2d, rng, tmp_path, unpack_container):
        f = random_field(grid2d, rng)
        path = tmp_path / "f.bin"
        write_spacetime(SpaceTimeField(grid2d, [0.0], f.values[None]), path)
        grid, _, values = unpack_container(path)
        assert grid == grid2d
        assert np.array_equal(values, f.values[None])
        grid, _, first = read_container(path)
        assert grid == grid2d and np.array_equal(first, f.values)

    def test_layout_is_little_endian_interleaved(self, tmp_path):
        g = GridSpec(1, 1.0, 8)
        f = SampledField(g, np.arange(8) + 1j * np.arange(8))
        path = tmp_path / "f.bin"
        write_spacetime(SpaceTimeField(g, [0.0], f.values[None]), path)
        raw = path.read_bytes()
        n, L, N, nslices = struct.unpack_from("<qdqq", raw)
        assert (n, L, N, nslices) == (1, 1.0, 8, 1)
        data = np.frombuffer(raw, dtype="<f8", offset=struct.calcsize("<qdqq") + 8)
        assert data[0::2] == pytest.approx(np.arange(8))
        assert data[1::2] == pytest.approx(np.arange(8))

    def _container(self, tmp_path, rng):
        g = GridSpec(1, 1.0, 8)
        stf = SpaceTimeField(g, np.array([0.0, 1.0]),
                             np.array([random_field(g, rng).values for _ in range(2)]))
        path = tmp_path / "f.bin"
        write_spacetime(stf, path)
        return path

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path = self._container(tmp_path, rng)
        path.write_bytes(path.read_bytes() + bytes(16))
        with pytest.raises(ValueError, match=f"{path.name}.*needs"):
            read_container(path)

    def test_truncated_inside_slice_rejected(self, tmp_path, rng):
        path = self._container(tmp_path, rng)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(ValueError, match=f"{path.name}.*needs"):
            read_container(path)

    @pytest.mark.parametrize("size", [0, 20, 40])
    def test_zero_bytes_rejected(self, tmp_path, size):
        # 0 and 20 bytes cannot hold the header; 40 zero bytes declare n = 0
        path = tmp_path / "zero.bin"
        path.write_bytes(bytes(size))
        with pytest.raises(ValueError, match=path.name):
            read_container(path)

    def test_blocks_are_read_and_checked_one_at_a_time(self, tmp_path, unpack_container):
        # three slices of 2^16 points, 1 MiB each: one slice per block, written as three
        # blocks; the reader holds the first slice and one block besides, not the file
        g = GridSpec(1, 16.0, 2 ** 16)
        assert len(_blocks(3, g.size)) == 3
        values = np.arange(3 * g.size).reshape((3,) + g.shape) * (1 - 1j)
        path = tmp_path / "three.bin"
        write_container(path, g, [0.0, 0.5, 1.0], iter(values[:, None]))
        grid, times, unpacked = unpack_container(path)
        assert grid == g and np.array_equal(times, [0.0, 0.5, 1.0])
        assert np.array_equal(unpacked, values)
        del unpacked
        tracemalloc.start()
        try:
            grid, times, first = read_container(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid == g and np.array_equal(times, [0.0, 0.5, 1.0])
        assert np.array_equal(first, values[0])
        assert peak < 2.5 * 2 ** 20
        raw = bytearray(path.read_bytes())
        raw[-16:-8] = struct.pack("<d", np.nan)  # the last slice's last sample
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"{path.name}.*non-finite"):
            read_container(path)

    @pytest.mark.parametrize("blocks,match", [
        ([np.ones((1, 8))], "blocks hold 1 slices, the instants 2"),
        ([np.ones((2, 8)), np.ones((1, 8))], "blocks hold 3 slices, the instants 2"),
        ([np.ones((2, 4))], r"shape \(2, 4\)"),
        ([np.ones((1, 8)), np.ones((1, 1, 8))], r"shape \(1, 1, 8\)"),
        ([np.ones(8)], r"shape \(8,\)"),
    ], ids=["too-few", "too-many", "short-slices", "extra-axis", "no-slice-axis"])
    def test_blocks_that_do_not_fit_are_rejected(self, tmp_path, blocks, match):
        # a reader would reject each of these files; none is left behind
        path = tmp_path / "bad.bin"
        with pytest.raises(ValueError, match=f"{path.name}: .*{match}"):
            write_container(path, GridSpec(1, 2.0, 8), [0.0, 1.0], blocks)
        assert not path.exists()

    def test_bad_header_values_rejected(self, tmp_path, rng):
        path = self._container(tmp_path, rng)
        raw = path.read_bytes()
        for header in ((4, 1.0, 8, 2), (1, 1.0, 0, 2), (1, 1.0, 8, 0), (1, float("nan"), 8, 2)):
            path.write_bytes(struct.pack("<qdqq", *header) + raw[32:])
            with pytest.raises(ValueError, match=path.name):
                read_container(path)


class TestInvariantsAndChecks:
    def test_times_must_increase(self, grid1d, rng):
        with pytest.raises(ValueError):
            SpaceTimeField(grid1d, np.array([0.0, 0.0]),
                           np.array([random_field(grid1d, rng).values] * 2))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_times_must_be_finite(self, grid1d, rng, bad):
        with pytest.raises(ValueError, match=f"finite, got {bad} at index 1"):
            SpaceTimeField(grid1d, np.array([0.0, bad]),
                           np.array([random_field(grid1d, rng).values] * 2))

    def test_value_count(self, grid1d):
        with pytest.raises(ValueError):
            SampledField(grid1d, np.zeros(7))

    def test_real_values_stay_real(self, grid1d):
        vals = np.linspace(0.0, 1.0, grid1d.npts)
        assert SampledField(grid1d, vals).values is vals  # neither cast nor copied
        assert SampledField(grid1d, np.arange(grid1d.npts)).values.dtype == np.float64
        assert SampledField(grid1d, vals + 0j).values.dtype == np.complex128

    def test_non_finite_rejected(self, grid1d):
        vals = np.zeros(grid1d.shape)
        vals[3] = np.inf
        with pytest.raises(ValueError):
            SampledField(grid1d, vals)

    @pytest.mark.parametrize("q", [2, 3.5, np.inf])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_lq_rejects_non_finite(self, q, bad):
        # raised before the divide, so no RuntimeWarning comes first
        with pytest.raises(ValueError, match="non-finite"):
            _lq(np.array([[1.0, 2.0], [3.0, bad]]), q, 1)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_norm_past_float64_range_rejected(self, p):
        # every sample is finite, but the norm 1e308 * 8^(1/p) >= 2e308 is not; raised
        # before the multiply, so no RuntimeWarning comes first
        f = SampledField(GridSpec(1, 4.0, 64), np.full(64, 1e308 + 0j))
        with pytest.raises(ValueError, match="float64 range"):
            lebesgue_norm(f, p)

    def test_band_limited_generator_zero_mode_free(self, grid1d):
        f = band_limited_field(grid1d, 11)
        spec = transform(f, "forward").values
        assert abs(spec[0]) < 1e-12
        assert lebesgue_norm(f, 2).value == pytest.approx(1.0, rel=1e-12)

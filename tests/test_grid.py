import numpy as np
import pytest

from amalgam.grid import (
    GridSpec,
    SampledField,
    SpaceTimeField,
    boundary_mass_fraction,
    check_boundary_mass,
    lebesgue_norm,
    mixed_lebesgue_norm,
    read_spacetime,
    transform,
    trapezoid_weights,
    write_field,
    write_spacetime,
)
from amalgam.propagator import hsigma_norm
from amalgam.verify import band_limited_field, gaussian_datum
from amalgam.wiener import WindowSpec, amalgam_norm, spacetime_amalgam_norm, unit_cube_partition


def random_field(grid, rng):
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return SampledField(grid, vals)


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
        assert mags[j] == pytest.approx(2.0 * grid1d.length, rel=1e-12)
        mags[j] = 0.0
        assert mags.max() < 1e-9 * 2.0 * grid1d.length

    def test_parseval(self, grid1d, rng):
        # spectral l2 with the declared weight equals the Riemann L2 norm
        w = (grid1d.dxi / (2 * np.pi)) ** grid1d.n
        for _ in range(1000):
            f = random_field(grid1d, rng)
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
    def test_single_slice(self, grid1d, rng):
        f = random_field(grid1d, rng)
        stf = SpaceTimeField(grid1d, np.array([0.7]), np.array([f.values]))
        for q in (1, 2, 7):
            got = mixed_lebesgue_norm(stf, q, 2).value
            assert got == pytest.approx(lebesgue_norm(f, 2).value, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_extreme_magnitudes_stay_finite(self, grid1d, scale):
        # |f| = scale on [-L, L) x [0, 2]: the L^q_t L^r_x norm is scale (2L)^(1/r) 2^(1/q)
        times = np.linspace(0.0, 2.0, 5)
        stf = SpaceTimeField(grid1d, times, np.full((5,) + grid1d.shape, scale + 0j))
        unit = SpaceTimeField(grid1d, times, np.ones((5,) + grid1d.shape, dtype=complex))
        win = unit_cube_partition()
        for q, r in ((2, 2), (3, 1.5), (np.inf, 4)):
            want = scale * (2 * grid1d.length) ** (1 / r) * 2 ** (1 / q)
            assert mixed_lebesgue_norm(stf, q, r).value == pytest.approx(want, rel=1e-13, abs=0)
            got = spacetime_amalgam_norm(stf, q, 4, 2, r, win, win).value
            assert got == pytest.approx(
                scale * spacetime_amalgam_norm(unit, q, 4, 2, r, win, win).value, rel=1e-13, abs=0)

    def test_q2_r2_is_flat_l2(self, grid1d, rng):
        times = np.linspace(0.0, 2.0, 9)
        slices = [random_field(grid1d, rng) for _ in times]
        stf = SpaceTimeField(grid1d, times, np.array([s.values for s in slices]))
        got = mixed_lebesgue_norm(stf, 2, 2).value
        w = trapezoid_weights(times)
        flat = np.sqrt(sum(
            wi * lebesgue_norm(s, 2).value ** 2 for wi, s in zip(w, slices)))
        assert got == pytest.approx(flat, rel=1e-12)

    def test_time_constant_over_unit_interval(self, grid1d, rng):
        f = random_field(grid1d, rng)
        times = np.linspace(0.0, 1.0, 33)
        stf = SpaceTimeField(grid1d, times, np.array([f.values] * len(times)))
        got = mixed_lebesgue_norm(stf, 4, 2).value
        assert got == pytest.approx(lebesgue_norm(f, 2).value, rel=1e-12)


class TestSerialization:
    def test_spacetime_roundtrip(self, grid1d, rng, tmp_path):
        times = np.array([-1.0, 0.25, 3.0])
        stf = SpaceTimeField(grid1d, times, np.array([random_field(grid1d, rng).values
                                                      for _ in times]))
        path = tmp_path / "field.bin"
        write_spacetime(stf, path)
        back = read_spacetime(path)
        assert back.grid == grid1d
        assert np.array_equal(back.times, times)
        for k in range(len(times)):
            assert np.array_equal(back.values[k], stf.values[k])

    def test_single_field_roundtrip(self, grid2d, rng, tmp_path):
        f = random_field(grid2d, rng)
        path = tmp_path / "f.bin"
        write_field(f, path)
        back = read_spacetime(path)
        assert back.grid == grid2d
        assert np.array_equal(back.values[0], f.values)

    def test_layout_is_little_endian_interleaved(self, tmp_path):
        g = GridSpec(1, 1.0, 8)
        f = SampledField(g, np.arange(8) + 1j * np.arange(8))
        path = tmp_path / "f.bin"
        write_field(f, path)
        raw = path.read_bytes()
        import struct
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
            read_spacetime(path)

    def test_truncated_inside_slice_rejected(self, tmp_path, rng):
        path = self._container(tmp_path, rng)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(ValueError, match=f"{path.name}.*needs"):
            read_spacetime(path)

    @pytest.mark.parametrize("size", [0, 20, 40])
    def test_zero_bytes_rejected(self, tmp_path, size):
        # 0 and 20 bytes cannot hold the header; 40 zero bytes declare n = 0
        path = tmp_path / "zero.bin"
        path.write_bytes(bytes(size))
        with pytest.raises(ValueError, match=path.name):
            read_spacetime(path)

    def test_bad_header_values_rejected(self, tmp_path, rng):
        import struct
        path = self._container(tmp_path, rng)
        raw = path.read_bytes()
        for header in ((4, 1.0, 8, 2), (1, 1.0, 0, 2), (1, 1.0, 8, 0), (1, float("nan"), 8, 2)):
            path.write_bytes(struct.pack("<qdqq", *header) + raw[32:])
            with pytest.raises(ValueError, match=path.name):
                read_spacetime(path)


class TestInvariantsAndChecks:
    def test_times_must_increase(self, grid1d, rng):
        with pytest.raises(ValueError):
            SpaceTimeField(grid1d, np.array([0.0, 0.0]),
                           np.array([random_field(grid1d, rng).values] * 2))

    def test_value_count(self, grid1d):
        with pytest.raises(ValueError):
            SampledField(grid1d, np.zeros(7))

    def test_non_finite_rejected(self, grid1d):
        vals = np.zeros(grid1d.shape)
        vals[3] = np.inf
        with pytest.raises(ValueError):
            SampledField(grid1d, vals)

    def test_boundary_mass_warning(self):
        g = GridSpec(1, 8, 256)
        wide = gaussian_datum(g, width=5.0)
        assert boundary_mass_fraction(wide) > 1e-6
        with pytest.warns(UserWarning, match="boundary mass"):
            check_boundary_mass(wide)

    def test_boundary_mass_ok_for_narrow(self):
        g = GridSpec(1, 16, 256)
        narrow = gaussian_datum(g, width=1.0)
        assert boundary_mass_fraction(narrow) < 1e-6

    def test_band_limited_generator_zero_mode_free(self, grid1d):
        f = band_limited_field(grid1d, 11)
        spec = transform(f, "forward").values
        assert abs(spec[0]) < 1e-12
        assert lebesgue_norm(f, 2).value == pytest.approx(1.0, rel=1e-12)

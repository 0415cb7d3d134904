import tracemalloc

import numpy as np
import pytest

from amalgam.grid import (
    GridSpec,
    SampledField,
    SpaceTimeField,
    lebesgue_norm,
    trapezoid_weights,
)
from amalgam.propagator import (
    adjoint_accumulate,
    evolve_blocks,
    hsigma_norm,
)
from amalgam.verify import band_limited_field, gaussian_datum
from amalgam.wiener import spacetime_inner_product


def inner(u, v):
    return np.sum(u.values * np.conj(v.values)) * u.grid.cell_volume


def evolve(f, t, sigma):
    """The evolved field at one instant: evolve_blocks' one block of one slice."""
    ((_, block),) = evolve_blocks(f, [t], sigma)
    return SampledField(f.grid, block[0])


def evolve_series(f, times, sigma):
    """evolve_blocks' blocks as one space-time field."""
    return SpaceTimeField(f.grid, times,
                          np.concatenate([block for _, block in evolve_blocks(f, times, sigma)]))


class TestHsigmaNorm:
    def test_sigma_zero_is_l2(self, grid1d, grid2d, rng):
        # Parseval with the bare transform's weight dx^n / N^n: a band-limited field, 1000
        # complex normal fields and a 2-D one
        fields = [band_limited_field(grid1d, 0)]
        for g, count in ((grid1d, 1000), (grid2d, 1)):
            fields += [SampledField(g, rng.standard_normal(g.shape)
                                    + 1j * rng.standard_normal(g.shape)) for _ in range(count)]
        for f in fields:
            assert hsigma_norm(f, 0.0).value == pytest.approx(
                lebesgue_norm(f, 2).value, rel=1e-12)

    def test_pure_mode(self, grid1d):
        j = 12
        xi = grid1d.axis_frequencies()[j]
        f = SampledField(grid1d, np.exp(1j * xi * grid1d.axis_points()))
        for sigma in (0.25, 0.4):
            want = abs(xi) ** sigma * lebesgue_norm(f, 2).value
            assert hsigma_norm(f, sigma).value == pytest.approx(want, rel=1e-12)

    def test_direct_spectral_sum(self, grid1d):
        f = band_limited_field(grid1d, 4)
        spec = grid1d.dx * np.fft.fft(f.values)  # the continuum transform, up to a phase
        xi = np.abs(grid1d.axis_frequencies())
        w = grid1d.dxi / (2 * np.pi)
        sigma = 0.3
        direct = np.sqrt(np.sum(np.where(xi > 0, xi ** (2 * sigma), 0.0)
                                * np.abs(spec) ** 2) * w)
        assert hsigma_norm(f, sigma).value == pytest.approx(direct, rel=1e-12)

    def test_zero_mode_warning(self, grid1d):
        f = gaussian_datum(grid1d)  # nonzero mean
        with pytest.warns(UserWarning, match="zero-mode"):
            hsigma_norm(f, 0.3)

    def test_rejects_negative_sigma(self, grid1d):
        with pytest.raises(ValueError):
            hsigma_norm(band_limited_field(grid1d, 0), -0.1)


class TestEvolve:
    def test_t0_identity(self, grid1d):
        f = band_limited_field(grid1d, 1)
        out = evolve(f, 0.0, 0.0)
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_unitarity(self, grid1d, rng):
        for k in range(100):
            f = band_limited_field(grid1d, 100 + k)
            t = float(rng.uniform(-10, 10))
            assert lebesgue_norm(evolve(f, t, 0.0), 2).value == pytest.approx(
                lebesgue_norm(f, 2).value, rel=1e-12)

    def test_gaussian_closed_form(self):
        # free evolution of exp(-x^2 / (2 a^2)) stays Gaussian with
        # complex width a^2 + 2 i t (direct completion of the square)
        g = GridSpec(1, 16.0, 1024)
        a2, t = 1.0, 0.5
        f = gaussian_datum(g, width=1.0)
        u = evolve(f, t, 0.0)
        z = a2 + 2j * t
        x = g.axis_points()
        oracle = np.sqrt(a2 / z) * np.exp(-(x ** 2) / (2 * z))
        assert np.max(np.abs(u.values - oracle)) < 1e-8

    def test_gaussian_closed_form_2d(self, grid2d):
        a2, t = 1.0, 0.3
        f = gaussian_datum(grid2d, width=1.0)
        u = evolve(f, t, 0.0)
        z = a2 + 2j * t
        xs, ys = np.meshgrid(*(grid2d.axis_points(),) * grid2d.n, indexing="ij")
        oracle = (a2 / z) * np.exp(-(xs ** 2 + ys ** 2) / (2 * z))
        assert np.max(np.abs(u.values - oracle)) < 1e-8

    def test_group_law(self, grid1d):
        f = band_limited_field(grid1d, 2)
        a = evolve(evolve(f, 0.7, 0.0), -1.9, 0.0)
        b = evolve(f, -1.2, 0.0)
        assert np.max(np.abs(a.values - b.values)) < 1e-10

    def test_sigma_out_of_range(self, grid1d):
        f = band_limited_field(grid1d, 2)
        with pytest.raises(ValueError):
            evolve(f, 1.0, 0.5)  # n/2 = 0.5 excluded


class TestEvolveSeries:
    def test_single_zero_time(self, grid1d):
        f = band_limited_field(grid1d, 3)
        stf = evolve_series(f, [0.0], 0.0)
        assert len(stf.values) == 1
        assert np.max(np.abs(stf.values[0] - f.values)) < 1e-12

    def test_reversal(self, grid1d):
        f = band_limited_field(grid1d, 4)
        fwd = evolve(f, 2.5, 0.0)
        back = evolve(fwd, -2.5, 0.0)
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_dispersive_sup_decay(self):
        g = GridSpec(1, 64.0, 2048)
        f = gaussian_datum(g, width=1.0)
        times = np.geomspace(0.05, 20.0, 64)
        stf = evolve_series(f, times, 0.0)
        sups = np.array([np.abs(v).max() for v in stf.values])
        assert np.all(np.diff(sups) <= 1e-12)

    def test_empty_times_rejected(self, grid1d):
        with pytest.raises(ValueError):
            evolve_series(band_limited_field(grid1d, 1), [], 0.0)


class TestAdjointAccumulate:
    def test_single_slice_at_zero(self, grid1d):
        f = band_limited_field(grid1d, 5)
        stf = SpaceTimeField(grid1d, np.array([0.0]), np.array([f.values]))
        sigma = 0.3
        got = adjoint_accumulate(stf, sigma)
        want = evolve(f, 0.0, sigma)  # pure smoothing weight at s = 0
        assert np.max(np.abs(got.values - want.values)) < 1e-12

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_duality_identity(self, sigma):
        g = GridSpec(1, 8.0, 128)
        times = np.linspace(-1.5, 1.5, 9)
        for k in range(100):
            F = SpaceTimeField(
                g, times, np.array([band_limited_field(g, 300 + 11 * k + i).values
                                    for i in range(9)]))
            f = band_limited_field(g, 7000 + k)
            lhs = inner(adjoint_accumulate(F, sigma), f)
            rhs = spacetime_inner_product(F, evolve_series(f, times, sigma))
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1e-30)

    def test_symmetry_cancellation(self):
        # real even datum; the accumulated field is real for slices even
        # in time and purely imaginary for slices odd in time
        g = GridSpec(1, 8.0, 256)
        x = g.axis_points()
        base = np.cos(2.0 * np.pi * x / g.length) * np.exp(-(x ** 2))
        even_datum = SampledField(g, base - base.mean())
        times = np.array([-2.0, -1.0, 1.0, 2.0])
        even = SpaceTimeField(g, times, np.array([even_datum.values] * 4))
        got = adjoint_accumulate(even, 0.0)
        assert np.max(np.abs(got.values.imag)) < 1e-12 * np.max(np.abs(got.values))
        signs = [-1.0, -1.0, 1.0, 1.0]
        odd = SpaceTimeField(
            g, times, np.array([s * even_datum.values for s in signs]))
        got = adjoint_accumulate(odd, 0.0)
        assert np.max(np.abs(got.values.real)) < 1e-12 * np.max(np.abs(got.values))

    def test_empty_rejected(self, grid1d):
        with pytest.raises(ValueError):
            SpaceTimeField(grid1d, np.array([]), [])


class TestWeights:
    def test_single_instant_unit_weight(self):
        assert trapezoid_weights(np.array([3.0])) == pytest.approx([1.0])

    def test_weights_sum_to_span(self):
        t = np.array([0.0, 0.5, 2.0, 3.0])
        assert trapezoid_weights(t).sum() == pytest.approx(3.0)


def heap_peak(run) -> int:
    """Python-heap peak of run(), in bytes, traced from a clean start."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("g", [GridSpec(2, 8.0, 256), GridSpec(3, 4.0, 64)], ids=lambda g: f"n{g.n}")
class TestMemoryPerLatticePoint:
    # bounds from the bytes each design holds per lattice point, plus a fixed 2^16 bytes
    # (hsigma) or 2^19 (evolution): the per-axis tables, the transform's scratch lines and
    # numpy's ufunc buffers for the strided per-axis multiplies, 8192 elements for each
    # of three complex operands, 384 KiB

    def test_hsigma_holds_a_spectrum_a_weight_and_a_modulus(self, g):
        # complex spectrum 16 + weight |xi|^(2 sigma) 8 + modulus 8 = 32 bytes per point
        f = band_limited_field(g, 3)
        assert heap_peak(lambda: hsigma_norm(f, 0.3)) <= 32 * g.size + 2 ** 16

    def test_evolve_holds_a_spectrum_and_two_blocks(self, g):
        # spectrum 16 + the caller's last block 16 + the block being built 16 + its 1-byte
        # finiteness mask = 49 bytes per point; at these sizes a block is one slice
        f = band_limited_field(g, 3)

        def run():
            for _, block in evolve_blocks(f, [0.1, 0.2, 0.3, 0.4], 0.3):
                assert len(block) == 1
        assert heap_peak(run) <= 49 * g.size + 2 ** 19

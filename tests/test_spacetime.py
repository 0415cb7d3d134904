"""The (T, *shape) space-time array paths against slice-by-slice references.

The references are the per-slice loops the batched code replaced: one
forward transform, the multiplier exp(-i t |xi|^2) |xi|^-sigma and one
inverse transform per slice, and the pairings summed slice by slice.  The
multiplier built per |xi| shell is also checked bit for bit against the
same formula evaluated at every lattice point.
"""

import warnings

import numpy as np
import pytest

from amalgam.grid import (
    GridSpec,
    SampledField,
    SpaceTimeField,
    _dft,
    read_container,
    trapezoid_weights,
    write_container,
)
from amalgam.propagator import _propagate, adjoint_accumulate, evolve_blocks
from amalgam.verify import band_limited_field, bilinear_form
from amalgam.wiener import spacetime_inner_product

GRIDS = [GridSpec(1, 8.0, 64), GridSpec(2, 4.0, 16), GridSpec(3, 4.0, 8)]
TIMES = np.array([-1.3, -0.2, 0.0, 0.45, 2.5])


def frequency_radii(g):
    """|xi| at every lattice point, in FFT order."""
    return np.sqrt(sum(c ** 2 for c in np.ix_(*(g.axis_frequencies(),) * g.n)))


def evolve_reference(fld, t, sigma):
    """One slice: forward transform, multiplier, inverse transform."""
    g = fld.grid
    xi2 = frequency_radii(g) ** 2
    mult = np.exp(-1j * t * xi2)
    if sigma > 0:
        with np.errstate(divide="ignore"):
            mult = mult * np.where(xi2 > 0, xi2 ** (-sigma / 2.0), 0.0)
    return _dft(mult * _dft(fld.values, g), g, inverse=True)


def adjoint_reference(stf, sigma):
    acc = np.zeros(stf.grid.shape, dtype=complex)
    for w, t, v in zip(trapezoid_weights(stf.times), stf.times, stf.values):
        acc += w * evolve_reference(SampledField(stf.grid, v), -t, sigma)
    return acc


def bilinear_reference(F, G, sigma):
    """The O(T^2) double loop over slice pairs."""
    ef = [evolve_reference(SampledField(F.grid, v), -t, sigma) for t, v in zip(F.times, F.values)]
    eg = [evolve_reference(SampledField(G.grid, v), -t, sigma) for t, v in zip(G.times, G.values)]
    acc = 0.0 + 0.0j
    for wi, fv in zip(trapezoid_weights(F.times), ef):
        for wj, gv in zip(trapezoid_weights(G.times), eg):
            acc += wi * wj * np.sum(fv * np.conj(gv)) * F.grid.cell_volume
    return complex(acc)


def propagate_reference(spec, times, sigma, g, weights=None):
    """The multiplier at all T * N^n entries at once, then one batched inverse transform."""
    xi2 = frequency_radii(g) ** 2
    out = np.multiply.outer(-1j * np.asarray(times, dtype=float), xi2)
    np.exp(out, out=out)
    if sigma > 0:
        with np.errstate(divide="ignore"):
            out *= np.where(xi2 > 0, xi2 ** (-sigma / 2.0), 0.0)
    out *= spec
    if weights is not None:
        out = np.tensordot(weights, out, axes=1)
    return _dft(out, g, inverse=True, out=out)


def random_stf(g, times, seed):
    return SpaceTimeField(g, times, np.array(
        [band_limited_field(g, seed + i, kmax=g.npts // 2 - 1).values for i in range(len(times))]))


def close(got, want, rtol=1e-12):
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"n{g.n}")
class TestBatchedEvolution:
    def test_series_slices_match_evolve(self, g, sigma):
        f = band_limited_field(g, 3, kmax=g.npts // 2 - 1)
        pairs = list(evolve_blocks(f, TIMES, sigma))
        values = np.concatenate([block for _, block in pairs])
        assert values.shape == (len(TIMES),) + g.shape
        assert np.array_equal(np.concatenate([t for t, _ in pairs]), TIMES)
        for k, t in enumerate(TIMES):
            ((_, one),) = evolve_blocks(f, [t], sigma)
            assert close(values[k], one[0])
            assert close(values[k], evolve_reference(f, t, sigma))

    def test_adjoint_matches_slice_loop(self, g, sigma):
        stf = random_stf(g, TIMES, 40)
        assert close(adjoint_accumulate(stf, sigma).values, adjoint_reference(stf, sigma))

    def test_bilinear_matches_double_loop(self, g, sigma):
        F, G = random_stf(g, TIMES, 70), random_stf(g, TIMES[1:], 90)
        want = bilinear_reference(F, G, sigma)
        assert abs(bilinear_form(F, G, sigma) - want) <= 1e-12 * abs(want)


# 20 instants span two shell-table blocks at n = 1, 2 and ten at n = 3
@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize("g", [GridSpec(1, 8.0, 4096), GridSpec(2, 8.0, 64), GridSpec(3, 4.0, 32)],
                         ids=lambda g: f"n{g.n}")
def test_shell_multiplier_is_exact(g, sigma):
    rng = np.random.default_rng(g.n)
    times = np.sort(rng.uniform(-3.0, 3.0, 20))
    stack = rng.standard_normal(times.shape + g.shape) + 1j * rng.standard_normal(times.shape + g.shape)
    assert np.array_equal(_propagate(stack[0], times, sigma, g),
                          propagate_reference(stack[0], times, sigma, g))
    assert np.array_equal(_propagate(stack, times, sigma, g),
                          propagate_reference(stack, times, sigma, g))
    w = trapezoid_weights(times)
    assert np.array_equal(_propagate(stack, -times, sigma, g, weights=w),
                          propagate_reference(stack, -times, sigma, g, weights=w))


@pytest.mark.parametrize("route, first", [
    ("evolve", "1e+308"), ("adjoint", "-1e+308"), ("bilinear", "-1e+308")])
def test_overflowing_phase_names_the_first_instant(route, first):
    # t |xi|^2 is finite at 1e300 and overflows from 1e308 on, forward or backward in time
    g = GRIDS[0]
    stf = random_stf(g, [0.0, 1e300, 1e308, 1.5e308], 3)
    run = {"evolve": lambda: list(evolve_blocks(SampledField(g, stf.values[0]), stf.times)),
           "adjoint": lambda: adjoint_accumulate(stf),
           "bilinear": lambda: bilinear_form(stf, stf, 0.0)}[route]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            run()
    assert str(exc.value) == f"field contains non-finite entries at t = {first}"


def test_inner_product_matches_slice_loop():
    g = GRIDS[1]
    F, G = random_stf(g, TIMES, 5), random_stf(g, TIMES, 15)
    want = sum(w * np.sum(a * np.conj(b)) * g.cell_volume
               for w, a, b in zip(trapezoid_weights(TIMES), F.values, G.values))
    assert abs(spacetime_inner_product(F, G) - want) <= 1e-12 * abs(want)


class TestSpaceTimeField:
    @pytest.mark.parametrize("shape", [(4, 64), (5, 32), (5, 64, 1), (64,)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            SpaceTimeField(GRIDS[0], TIMES, np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        values = np.zeros((len(TIMES),) + GRIDS[1].shape, dtype=complex)
        values[3, 2, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SpaceTimeField(GRIDS[1], TIMES, values)

    def test_values_are_one_complex_array(self):
        stf = SpaceTimeField(GRIDS[1], TIMES, np.ones((len(TIMES),) + GRIDS[1].shape))
        assert stf.values.dtype == complex and stf.values.shape == (5, 16, 16)
        assert not hasattr(stf, "slices")


@pytest.mark.parametrize("g", GRIDS[1:], ids=lambda g: f"n{g.n}")
def test_container_roundtrip(g, tmp_path):
    stf = random_stf(g, TIMES, 11)
    path = tmp_path / "field.bin"
    write_container(path, g, stf.times, [stf.values[:2], stf.values[2:]])
    assert path.stat().st_size == 32 + 8 * len(TIMES) + 16 * len(TIMES) * g.size
    grid, times, blocks = read_container(path)
    assert grid == g
    assert np.array_equal(times, stf.times)
    assert np.array_equal(np.concatenate(list(blocks)), stf.values)

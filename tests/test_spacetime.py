"""The (T, *shape) space-time array paths against slice-by-slice references.

The references are the per-slice loops the batched code replaced: one
forward transform, the multiplier exp(-i t |xi|^2) |xi|^-sigma and one
inverse transform per slice, and the pairings summed slice by slice.  The
multiplier, a product of one factor per axis, is checked against
exp(-i t |xi|^2) at 50 digits.
"""

import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from amalgam.grid import (
    GridSpec,
    SampledField,
    SpaceTimeField,
    _blocks,
    read_container,
    trapezoid_weights,
    write_container,
)
from amalgam.propagator import _propagate, _spectrum, adjoint_accumulate, evolve_blocks
from amalgam.verify import band_limited_field, band_limited_stack, bilinear_form
from amalgam.wiener import spacetime_inner_product

GRIDS = [GridSpec(1, 8.0, 64), GridSpec(2, 4.0, 16), GridSpec(3, 4.0, 8)]
TIMES = np.array([-1.3, -0.2, 0.0, 0.45, 2.5])


def frequency_radii(g):
    """|xi| at every lattice point, in FFT order."""
    return np.sqrt(sum(c ** 2 for c in np.ix_(*(g.axis_frequencies(),) * g.n)))


def spectrum(values, g):
    """The bare fftn over the trailing grid axes."""
    return np.fft.fftn(values, axes=tuple(range(-g.n, 0)))


def evolve_reference(fld, t, sigma):
    """One slice: forward transform, multiplier, inverse transform."""
    g = fld.grid
    xi2 = frequency_radii(g) ** 2
    mult = np.exp(-1j * t * xi2)
    if sigma > 0:
        with np.errstate(divide="ignore"):
            mult = mult * np.where(xi2 > 0, xi2 ** (-sigma / 2.0), 0.0)
    return np.fft.ifftn(mult * np.fft.fftn(fld.values))


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
    return np.fft.ifftn(out, axes=tuple(range(-g.n, 0)), out=out)


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


# Each multiplier value lies within _ULPS ulps of its phase t |xi|^2 (ulps of 1 below a
# phase of 1) of exp(-i t |xi|^2), fixed from the roundings: the float xi_a (3.5u
# relative, u = 2^-53), squared and times t, gives each per-axis phase within 9u; the
# old per-point |xi|, a sqrt of summed squares squared again, gives 13u; 9u or 13u of the
# phase is at most 9 or 13 ulps of it, and the exps and products add a few ulps of 1.
_ULPS = 16


def ulps_off(mult, times, g, points):
    """max over the flat lattice points and all instants of |mult - exp(-i t |xi|^2)| in
    ulps of max(|t| |xi|^2, 1): the exact value at 50 digits, from the float t and the
    exact lattice frequencies xi_a = pi j_a / L."""
    j = np.fft.fftfreq(g.npts, d=1.0 / g.npts).astype(int)
    worst = 0.0
    with mpmath.workdps(50):
        for p in points:
            xi2 = sum((mpmath.pi * int(j[i]) / mpmath.mpf(g.length)) ** 2
                      for i in np.unravel_index(p, g.shape))
            for k, t in enumerate(times):
                theta = mpmath.mpf(float(t)) * xi2
                m = mult[k].flat[p]
                err = abs(mpmath.mpc(m.real, m.imag) - mpmath.expj(-theta))
                worst = max(worst, float(err) / np.spacing(max(float(abs(theta)), 1.0)))
    return worst


@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize("g", [GridSpec(1, 8.0, 4096), GridSpec(2, 8.0, 64), GridSpec(3, 4.0, 32)],
                         ids=lambda g: f"n{g.n}")
def test_shell_multiplier_is_exact(g, sigma, monkeypatch):
    rng = np.random.default_rng(g.n)
    times = np.sort(rng.uniform(-3.0, 3.0, 20))
    stack = rng.standard_normal(times.shape + g.shape) + 1j * rng.standard_normal(times.shape + g.shape)
    if sigma == 0:  # the multiplier does not depend on sigma
        # the top frequency |xi_a| = pi N / 2L on every axis, and 23 lattice points at random
        points = np.r_[np.ravel_multi_index((g.npts // 2,) * g.n, g.shape),
                       rng.choice(g.size, 23, replace=False)]
        with monkeypatch.context() as m:  # what _propagate hands its inverse transform
            m.setattr(np.fft, "ifftn", lambda a, axes, norm, out: out)
            mult = _propagate(np.ones(g.shape, dtype=complex), times, g)
        assert ulps_off(mult, times, g, points) <= _ULPS
        # the per-point route that the product of per-axis factors replaced meets it too
        old = np.exp(np.multiply.outer(-1j * times, frequency_radii(g) ** 2))
        assert ulps_off(old, times, g, points) <= _ULPS
    # so the two routes differ by at most 2 _ULPS ulps of the top phase at every point,
    # and the unitary inverse transform keeps that bound on each slice's l2 norm
    tol = 2 * _ULPS * np.spacing(np.max(np.abs(times)) * float(np.max(frequency_radii(g))) ** 2)
    axes = tuple(range(-g.n, 0))

    def l2(a):
        return np.sqrt(np.sum(np.abs(a) ** 2, axis=axes))

    want = propagate_reference(spectrum(stack[0], g), times, sigma, g)
    assert np.all(l2(_propagate(_spectrum(stack[0], sigma, g), times, g) - want) <= tol * l2(want))
    want = propagate_reference(spectrum(stack, g), times, sigma, g)
    spec = _spectrum(stack, sigma, g)
    assert np.all(l2(_propagate(spec, times, g, spec) - want) <= tol * l2(want))
    w = trapezoid_weights(times)
    slices = propagate_reference(spectrum(stack, g), -times, sigma, g)
    want = propagate_reference(spectrum(stack, g), -times, sigma, g, weights=w)
    spec = _spectrum(stack, sigma, g)
    assert l2(_propagate(spec, -times, g, spec, w) - want) <= tol * (w @ l2(slices))


@pytest.mark.parametrize("route, first", [
    ("evolve", "1e+308"), ("adjoint", "-1e+308"), ("bilinear", "-1e+308")])
def test_overflowing_phase_names_the_first_instant(route, first):
    # the top phase t |xi|^2 = 16 pi^2 t is below 2^44 at 1e11 and overflows from 1e308
    # on, forward or backward in time
    g = GRIDS[0]
    stf = random_stf(g, [0.0, 1e11, 1e308, 1.5e308], 3)
    run = {"evolve": lambda: list(evolve_blocks(SampledField(g, stf.values[0]), stf.times)),
           "adjoint": lambda: adjoint_accumulate(stf),
           "bilinear": lambda: bilinear_form(stf, stf, 0.0)}[route]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            run()
    assert str(exc.value) == (f"the phase t |xi|^2 at t = {first} is not below 2^44, "
                              "so float64 cannot resolve it to 2^-9 rad")


@pytest.mark.parametrize("scale, passes", [(0.999, True), (1.001, False)])
def test_phase_bound_is_2_to_the_44(scale, passes):
    # t sets the top phase t |xi|^2 to scale * 2^44: below 2^44, float64 spaces
    # adjacent phases at most 2^-9 rad apart
    g = GRIDS[0]
    t = scale * 2.0 ** 44 / float(np.max(np.abs(g.axis_frequencies()))) ** 2
    fld = SampledField(g, random_stf(g, [0.0], 3).values[0])
    run = lambda: list(evolve_blocks(fld, [0.0, t]))
    if passes:
        run()
    else:
        with pytest.raises(ValueError, match=re.escape(f"at t = {t!r} is not below 2^44")):
            run()


def test_bilinear_memory_is_one_stack_and_one_block():
    # the benchmark's bilinear_n2: beyond its two input stacks, G's evolution (one stack),
    # one block of F's evolved instants and temporaries of at most four slices (the
    # smoothing weight, the per-axis tables, the Gram block and transform scratch)
    g, times = GridSpec(2, 8.0, 64), np.linspace(-2.0, 2.0, 33)
    F, G = (SpaceTimeField(g, times, band_limited_stack(g, range(s, s + 33))) for s in (0, 100))
    block = len(range(33)[_blocks(33, g.size)[0]])
    tracemalloc.start()
    try:
        bilinear_form(F, G, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * g.size * (len(times) + block + 4) + 2 ** 16


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
def test_container_roundtrip(g, tmp_path, unpack_container):
    stf = random_stf(g, TIMES, 11)
    path = tmp_path / "field.bin"
    write_container(path, g, stf.times, [stf.values[:2], stf.values[2:]])
    assert path.stat().st_size == 32 + 8 * len(TIMES) + 16 * len(TIMES) * g.size
    grid, times, values = unpack_container(path)
    assert grid == g
    assert np.array_equal(times, stf.times)
    assert np.array_equal(values, stf.values)
    grid, times, first = read_container(path)
    assert grid == g and np.array_equal(times, stf.times)
    assert np.array_equal(first, stf.values[0])

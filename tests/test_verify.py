import json
import math
import tracemalloc
from functools import cache, partial

import numpy as np
import pytest

from amalgam import cli, verify
from amalgam.exponents import (
    ExponentTuple,
    check,
    predicted_kernel_decay,
    to_float,
)
from amalgam.grid import GridSpec, SampledField, SpaceTimeField, _dft, _lq, lebesgue_norm
from amalgam.propagator import DecayProfile, evolve_blocks, hsigma_norm
from amalgam.verify import (
    _convolve,
    _power_kernel_ft,
    band_limited_field,
    band_limited_stack,
    bilinear_form,
    default_ratio_times,
    factorized_bilinear_form,
    fit_decay,
    gaussian_datum,
    hls_check_1d,
    local_window_norms,
    modulated_gaussian,
    property_suite,
    spike_field,
    strichartz_ratio,
)
from amalgam.wiener import (
    WindowSpec,
    _amalgam_norms,
    amalgam_norm,
    holder_pairing,
    spacetime_amalgam_norm,
    unit_cube_partition,
)


def synthetic_profile(exponent_small, exponent_large, n=1, sigma=0.3,
                      rt=np.inf, r=np.inf):
    times = np.geomspace(0.02, 50.0, 82)
    vals = np.where(times <= 1.0, times ** exponent_small, times ** exponent_large)
    return DecayProfile(times=times, values=vals,
                        est_error=np.zeros_like(times),
                        meta={"n": n, "sigma": sigma, "rt": rt, "r": r})


class TestFitDecay:
    def test_exact_power_law(self):
        prof = synthetic_profile(-0.2, -0.2)
        small, large = fit_decay(prof, predicted_kernel_decay(1, 0.3, np.inf, np.inf))
        assert small.slope == pytest.approx(-0.2, abs=1e-10)
        assert large.slope == pytest.approx(-0.2, abs=1e-10)
        assert small.predicted == pytest.approx(-0.2)
        assert small.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_two_regimes(self):
        prof = synthetic_profile(-0.3, -0.1)
        small, large = fit_decay(prof, predicted_kernel_decay(1, 0.3, np.inf, np.inf))
        assert small.slope == pytest.approx(-0.3, abs=1e-10)
        assert large.slope == pytest.approx(-0.1, abs=1e-10)

    def test_sigma0_kernel_slopes(self):
        from amalgam.grid import GridSpec
        from amalgam.propagator import kernel_amalgam_profile, profile_times
        g = GridSpec(1, 32.0, 1024)
        prof = kernel_amalgam_profile(0.0, np.inf, np.inf, profile_times(0.02, 50.0, 8), g)
        small, large = fit_decay(prof, predicted_kernel_decay(1, 0, np.inf, np.inf))
        assert small.slope == pytest.approx(-0.5, abs=0.02)
        assert large.slope == pytest.approx(-0.5, abs=0.02)

    def test_needs_enough_points(self):
        times = np.geomspace(0.5, 2.0, 10)
        prof = DecayProfile(times=times, values=times ** -0.5,
                            est_error=np.zeros_like(times), meta={})
        with pytest.raises(ValueError, match="points per regime"):
            fit_decay(prof, predicted_kernel_decay(1, 0.3, np.inf, np.inf))

    def test_rejects_nonpositive_values(self):
        prof = synthetic_profile(-0.2, -0.2)
        prof.values[3] = 0.0
        with pytest.raises(ValueError):
            fit_decay(prof, predicted_kernel_decay(1, 0.3, np.inf, np.inf))


class TestLocalWindowNorms:
    def test_synthetic_tail_slope(self):
        h = lambda t: np.asarray(t, float) ** -0.2
        rep = local_window_norms(h, range(-64, 65), qt=2, q=10, tail_exponent=-0.2)
        assert rep.tail_slope == pytest.approx(-0.2, abs=0.02)
        assert np.all(rep.terms <= rep.fitted_constant *
                      np.where(np.abs(rep.ks) <= 2, 1.0,
                               np.maximum(np.abs(rep.ks) - 1.0, 1.0) ** -0.2) + 1e-12)
        assert rep.weak_converged

    def test_divergent_weak_norm_flagged(self):
        # terms decaying slower than the weak exponent requires
        h = lambda t: np.asarray(t, float) ** -0.05
        rep = local_window_norms(h, range(-64, 65), qt=2, q=4, tail_exponent=-0.05)
        assert not rep.weak_converged


class TestStrichartzRatio:
    def tuple_accept(self):
        return ExponentTuple(n=1, sigma="0.3", qt=2, rt="inf", q=10, r="inf")

    def test_finite_and_stable_under_refinement(self):
        times = default_ratio_times(t_outer=16.0)
        vals = []
        for npts in (512, 1024):
            g = GridSpec(1, 16.0, npts)
            f = modulated_gaussian(g, width=1.0, mode=40)
            res = strichartz_ratio(f, self.tuple_accept(), times=times)
            assert np.isfinite(res.value) and res.value > 0
            vals.append(res.value)
        assert abs(vals[1] / vals[0] - 1.0) < 0.05

    def test_zero_datum_rejected(self):
        g = GridSpec(1, 16.0, 256)
        f = SampledField(g, np.zeros(g.shape))
        with pytest.raises(ValueError, match="degenerate"):
            strichartz_ratio(f, self.tuple_accept())

    def test_zero_mode_datum_rejected(self):
        # the smoothing weight drops the zero mode, so the ratio would undercount the datum
        f = gaussian_datum(GridSpec(1, 16.0, 256), width=1.0)
        with pytest.warns(UserWarning, match="zero-mode mass fraction"), \
                pytest.raises(ValueError, match="zero-mode mass fraction .*zero-mode-free"):
            strichartz_ratio(f, self.tuple_accept())

    def test_rejected_tuple_still_computes(self):
        # the region is the ratio command's check; the library computes any tuple
        g = GridSpec(1, 16.0, 256)
        f = modulated_gaussian(g, mode=40)
        bad = ExponentTuple(n=1, sigma="0.3", qt=10, rt="inf", q=10, r="inf")
        res = strichartz_ratio(f, bad, times=default_ratio_times(t_outer=4.0))
        assert np.isfinite(res.value) and res.value > 0

    def test_tuple_of_another_dimension_refused(self):
        # the tuple is admissible at n = 1, but not at the field's n = 2
        f = modulated_gaussian(GridSpec(2, 16.0, 64), mode=20)
        with pytest.raises(ValueError, match="dimension n = 1 is not the field's, 2"):
            strichartz_ratio(f, self.tuple_accept())

    def test_unsorted_times_rejected(self):
        g = GridSpec(1, 16.0, 256)
        f = modulated_gaussian(g, mode=40)
        with pytest.raises(ValueError, match="increasing"):
            strichartz_ratio(f, self.tuple_accept(), times=[0.1, 0.5, 0.3])

    def test_overflowing_datum_rejected(self):
        # finite samples of modulus 1e307 whose transform overflows
        g = GridSpec(1, 16.0, 1024)
        f = SampledField(g, 1e307 * modulated_gaussian(g, mode=40).values)
        with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="non-finite"):
            strichartz_ratio(f, self.tuple_accept())

    @pytest.mark.parametrize("t_outer", [0.5, 0.0, -4.0, float("nan")])
    def test_outer_time_below_one_rejected(self, t_outer):
        # below 1 there are no outer instants, and |t| <= 1 would be integrated instead
        with pytest.raises(ValueError, match="t_outer"):
            default_ratio_times(t_outer=t_outer)

    def test_memory_is_one_block_of_instants(self):
        # the ratio_n2 benchmark size: 576 slices of 128^2 would take 151 MB at once
        g = GridSpec(2, 16.0, 128)
        f = modulated_gaussian(g, mode=40)
        tup = ExponentTuple(n=2, sigma="0.3", qt=2, rt="inf", q="20/7", r="inf")
        times = default_ratio_times()
        assert len(times) == 576
        tracemalloc.start()
        try:
            res = strichartz_ratio(f, tup, times=times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(res.value) and res.value > 0
        assert peak < 16 * 2 ** 20

    def test_memory_is_linear_in_the_outer_time(self):
        # 16064 instants in 2001 unit cubes: a (cubes, instants) array would take 257 MB
        g = GridSpec(1, 16.0, 64)
        f = modulated_gaussian(g, mode=40)
        times = default_ratio_times(t_outer=1000.0)
        assert len(times) == 16064
        tracemalloc.start()
        try:
            res = strichartz_ratio(f, self.tuple_accept(), times=times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(res.value) and res.value > 0
        assert peak < 8 * 2 ** 20

    def test_frequency_sweep_records_spread(self):
        # the family exp(i 2^j x) g(x), g of unit width, at the nearest lattice
        # frequency, with its zero mode projected out
        g = GridSpec(1, 16.0, 1024)
        ratios = []
        for j in range(3):
            f = modulated_gaussian(g, mode=max(1, round(2.0 ** j * g.length / np.pi))).values
            ratios.append(strichartz_ratio(SampledField(g, f - f.mean()), self.tuple_accept(),
                                           times=default_ratio_times(t_outer=8.0)).value)
        assert len(ratios) == 3
        assert max(ratios) >= np.median(ratios)
        assert max(ratios) / min(ratios) >= 1.0


# ---------------------------------------------------------------------------
# dilation on the exact evolution
# ---------------------------------------------------------------------------
# At sigma = 0 the dilate f_lam(x) = (x / lam) exp(-x^2 / 2 lam^2) evolves in closed form:
# sup_x |e^{it Lap} f_lam| = e^{-1/2} (1 + 4 t^2 / lam^4)^{-1/4}, and its data norm is
# ||f_lam||_{H^sigma} = lam^{1/2 - sigma} Gamma(sigma + 3/2)^{1/2}.  Dilating by lam
# rescales time by lam^2, so small lam is small time and large lam is large time.

DILATION_TUPLES = {
    "qt4-q10": ExponentTuple(1, "3/10", 4, "inf", 10, "inf"),    # cn2's endpoint
    "qt6-q10": ExponentTuple(1, "3/10", 6, "inf", 10, "inf"),    # the theorem alone
    "qt10-q10": ExponentTuple(1, "3/10", 10, "inf", 10, "inf"),  # the classical line
    "qt5-q5": ExponentTuple(1, "3/10", 5, "inf", 5, "inf"),      # off the line
}
SMALL_LAMBDAS, LARGE_LAMBDAS = (0.005, 0.01), (8.0, 16.0)
# the slope's clause at small lam and its trade-off form at large lam, in the theorem
SMALL_CLAUSE = "2/qt + (n-1)/rt > n/2 - sigma"
LARGE_CLAUSE = "2/q + n/r = n/2 - sigma - (n-1)/rt"
# tolerances, fixed before the first run: on the log-log slopes at each end, and the
# lattice ratio's relative distance from the closed form (its denominator's, tighter)
SMALL_SLOPE_TOL, LARGE_SLOPE_TOL = 1e-3, 5e-3
LATTICE_RTOL, DENOMINATOR_RTOL = 2e-4, 1e-6
# 200 log-spaced instants per sign in [1e-7, 1], then steps of 1/2 out to 2048: they
# resolve the time scale lam^2 at lam = 0.005, and reach 8 lam^2 at lam = 16
_POSITIVE = np.concatenate([np.geomspace(1e-7, 1.0, 200), np.arange(1.5, 2048.25, 0.5)])
DILATION_TIMES = np.concatenate([-_POSITIVE[::-1], _POSITIVE])


def dilation_ratio(tup, lam, times):
    """strichartz_ratio of f_lam at rt = r = inf from the closed forms: the package's time
    reduction of the sup, on slices constant in x, over the data norm."""
    sup = np.exp(-0.5) * (1.0 + 4.0 * (times / lam ** 2) ** 2) ** -0.25
    g = GridSpec(1, 0.5, 8)  # one unit cube, so the spatial norm of a constant is itself
    num = spacetime_amalgam_norm([np.repeat(sup[:, None], g.npts, axis=1)], g, times,
                                 to_float(tup.qt), to_float(tup.q), math.inf, math.inf)
    return num / dilation_hsigma(lam, to_float(tup.sigma))


def dilation_hsigma(lam, sigma):
    return lam ** (0.5 - sigma) * math.gamma(sigma + 1.5) ** 0.5


@cache  # criterion 8 reads the same slopes
def dilation_slope(tup, lams):
    a, b = (dilation_ratio(tup, lam, DILATION_TIMES) for lam in lams)
    return math.log(b / a) / math.log(lams[1] / lams[0])


def theorem_slack(tup, clause):
    """The exact slack of one clause of the theorem's table, as a float."""
    (c,) = [c for c in check("theorem", tup).constraints if c.name == clause]
    return float(c.slack)


@cache  # criterion 8 reads the same drifts
def lattice_drift(tup, lam):
    """strichartz_ratio of f_lam on a lattice at default_ratio_times(16, 0.25): the
    relative distances of its ratio and its denominator from the closed forms."""
    g, times = GridSpec(1, 128.0, 8192), default_ratio_times(16.0, 0.25)
    x = g.axis_points() / lam
    res = strichartz_ratio(SampledField(g, x * np.exp(-x ** 2 / 2.0)), tup, times)
    return (res.value / dilation_ratio(tup, lam, times) - 1.0,
            res.denominator / dilation_hsigma(lam, to_float(tup.sigma)) - 1.0)


class TestDilation:
    @pytest.mark.parametrize("name, verdicts", [
        ("qt4-q10", (True, True, False)), ("qt6-q10", (True, False, False)),
        ("qt10-q10", (False, False, False)), ("qt5-q5", (False, False, False))])
    def test_engine_verdicts(self, name, verdicts):
        # (theorem, cn2, classical): cn2's amalgam region stops at qt = 4
        tup = DILATION_TUPLES[name]
        assert tuple(check(s, tup).verdict for s in ("theorem", "cn2", "classical")) == verdicts

    @pytest.mark.parametrize("name", DILATION_TUPLES)
    def test_small_lambda_slope_is_the_clause_slack(self, name):
        tup = DILATION_TUPLES[name]
        assert dilation_slope(tup, SMALL_LAMBDAS) == pytest.approx(
            theorem_slack(tup, SMALL_CLAUSE), abs=SMALL_SLOPE_TOL)

    @pytest.mark.parametrize("name", DILATION_TUPLES)
    def test_large_lambda_slope_is_the_trade_off_value(self, name):
        tup = DILATION_TUPLES[name]
        assert dilation_slope(tup, LARGE_LAMBDAS) == pytest.approx(
            theorem_slack(tup, LARGE_CLAUSE), abs=LARGE_SLOPE_TOL)

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("name", DILATION_TUPLES)
    def test_lattice_ratio_is_the_closed_form(self, name, lam):
        ratio, denominator = lattice_drift(DILATION_TUPLES[name], lam)
        assert abs(ratio) <= LATTICE_RTOL and abs(denominator) <= DENOMINATOR_RTOL


def _random_bump(tgrid, rng):
    """Random smooth function supported in |t| <= 1, drawn as hls_check_1d draws it."""
    envelope = np.where(np.abs(tgrid) < 1.0,
                        np.exp(-1.0 / np.maximum(1.0 - tgrid ** 2, 1e-300)), 0.0)
    coef = rng.standard_normal(4)
    osc = sum(c * np.cos((k + 1) * np.pi * tgrid) for k, c in enumerate(coef))
    return envelope * (1.0 + 0.5 * osc)


class TestHls:
    def test_q_infinite_rejected(self):
        rep = hls_check_1d(2, "0.5")
        assert not rep.accepted
        assert "inf" in rep.reason

    def test_alpha_range(self):
        assert not hls_check_1d("4/3", "1").accepted

    def test_main_case(self):
        rep = hls_check_1d("4/3", "0.5", trials=50, seed=1)
        assert rep.accepted
        from fractions import Fraction
        assert rep.q == Fraction(4)
        assert rep.max_ratio > 0
        assert rep.refinement_stable

    # Lieb's sharp constant for the diagonal case p = 2/(2 - alpha) of the 1-D
    # Hardy-Littlewood-Sobolev inequality, alpha = 1/2 (Lieb, Ann. of Math. 1983)
    LIEB = math.gamma(0.25) / math.gamma(0.75)

    def test_trials_stay_below_the_sharp_constant(self):
        assert self.LIEB == pytest.approx(2.9586751, abs=1e-7)
        rep = hls_check_1d("4/3", "0.5")  # the hls command's trials and seed
        assert len(rep.ratios) == 200
        assert max(rep.ratios) < self.LIEB and rep.refined_max < self.LIEB

    def test_extremal_nearly_attains_the_sharp_constant(self):
        # Lieb's extremal (1 + t^2)^(-3/4), on the hls command's grid
        tgrid = np.linspace(-200.0, 200.0, 2 ** 14)
        dt = tgrid[1] - tgrid[0]
        g = (1.0 + tgrid ** 2) ** -0.75
        conv = _convolve(g, _power_kernel_ft(tgrid, 0.5), dt)
        ratio = float(_lq(np.abs(conv), 4.0, None, dt) / _lq(g.copy(), 4 / 3, None, dt))
        assert (1 - 0.003) * self.LIEB < ratio < self.LIEB

    def test_cached_transforms_match_per_trial_convolutions(self):
        # reference: a fresh bump and a fresh kernel transform for every trial
        p, q, alpha = 4 / 3, 4.0, 0.5

        def ratio(g, tgrid):
            dt = tgrid[1] - tgrid[0]
            conv = _convolve(g, _power_kernel_ft(tgrid, alpha), dt)
            return float(_lq(np.abs(conv), q, None, dt) / _lq(np.abs(g), p, None, dt))

        rng = np.random.default_rng(0)
        tgrid = np.linspace(-200.0, 200.0, 2 ** 14)
        bumps = [_random_bump(tgrid, rng) for _ in range(4)]
        ratios = [ratio(g, tgrid) for g in bumps]
        worst = bumps[int(np.argmax(ratios))]
        t2 = np.linspace(-200.0, 200.0, 2 ** 15)
        rep = hls_check_1d("4/3", "0.5", trials=4, seed=0)
        assert rep.ratios == ratios
        assert rep.max_ratio == max(ratios)
        assert rep.refined_max == ratio(np.interp(t2, tgrid, worst), t2)

    def test_narrow_bump_closed_form(self):
        # indicator bump convolved with |t|^(-1/2): with the cell-averaged
        # kernel the discrete sum equals the integral over the union of
        # sample cells, and the primitive 2 sign(u) sqrt|u| is exact
        w = 0.25
        tgrid = np.linspace(-40.0, 40.0, 2 ** 15)
        dt = tgrid[1] - tgrid[0]
        g = ((tgrid >= -w) & (tgrid <= w)).astype(float)
        conv = _convolve(g, _power_kernel_ft(tgrid, 0.5), dt)

        def prim(u):
            return 2.0 * np.sign(u) * np.sqrt(np.abs(u))

        included = tgrid[g > 0]
        lo, hi = included[0] - 0.5 * dt, included[-1] + 0.5 * dt
        exact = prim(tgrid - lo) - prim(tgrid - hi)
        assert np.max(np.abs(conv - exact)) < 1e-3


def band_limited_reference(g, seed, kmax):
    """One draw, one inverse transform, one division by the field's L2 norm."""
    j = np.fft.fftfreq(g.npts, d=1.0 / g.npts)
    rad = np.sqrt(sum(c ** 2 for c in np.ix_(*(j,) * g.n)))
    band = (rad >= 1) & (rad <= (g.npts // 4 if kmax is None else kmax))
    rng = np.random.default_rng(seed)
    spec = np.zeros(g.shape, dtype=complex)
    spec[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
    f = SampledField(g, _dft(spec, g, inverse=True))
    return f.values / lebesgue_norm(f, 2).value


@pytest.mark.parametrize("g,kmax", [(GridSpec(1, 8.0, 4096), None), (GridSpec(1, 8.0, 64), 31),
                                    (GridSpec(2, 8.0, 64), None), (GridSpec(2, 4.0, 16), 7),
                                    (GridSpec(3, 4.0, 32), None), (GridSpec(3, 4.0, 8), 3)])
def test_band_limited_stack_rows_are_the_single_fields(g, kmax):
    # seed 136 at N = 4096: a sqrt root of its norm is one ulp off a pow root
    seeds = [136, 5, 4000, 7]
    stack = band_limited_stack(g, seeds, kmax=kmax)
    assert stack.shape == (len(seeds),) + g.shape
    for row, seed in zip(stack, seeds):
        assert np.array_equal(row, band_limited_field(g, seed, kmax=kmax).values)
        assert np.array_equal(row, band_limited_reference(g, seed, kmax))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_data_match_the_meshgrid_formulas(n):
    g = GridSpec(n, 4.0, 16)
    mesh = g.meshgrid()
    gauss = np.exp(-sum(c ** 2 for c in mesh) / 2.0)
    assert np.array_equal(gaussian_datum(g).values, gauss)
    np.testing.assert_allclose(modulated_gaussian(g).values,
                               gauss * np.exp(1j * 8 * g.dxi * sum(mesh)), rtol=1e-14, atol=0)


@pytest.mark.parametrize("make", [gaussian_datum, modulated_gaussian])
def test_data_memory_per_lattice_point(make):
    # built on open grids: the field's 16 bytes per point and one 8-byte temporary
    g = GridSpec(3, 4.0, 64)
    tracemalloc.start()
    try:
        f = make(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * f.values.nbytes


@pytest.mark.parametrize("make", [gaussian_datum, spike_field])
def test_real_data_memory_per_lattice_point(make):
    # a real datum's 8 bytes per point, the check's 1-byte finiteness mask, and
    # N^2-sized temporaries from the open grids: at 64^3, 9.5 bytes per point in all
    g = GridSpec(3, 4.0, 64)
    make(GridSpec(1, 4.0, 8))  # imports and first-call set-up stay out of the trace
    tracemalloc.start()
    try:
        f = make(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.values.dtype == np.float64
    assert peak <= 9.5 * g.size


@pytest.mark.parametrize("make, dtype", [
    (gaussian_datum, np.float64), (spike_field, np.float64),
    (modulated_gaussian, np.complex128), (partial(band_limited_field, seed=3), np.complex128),
], ids=["gaussian", "spike", "modulated", "band-limited"])
def test_generator_dtype(make, dtype):
    assert make(GridSpec(2, 4.0, 16)).values.dtype == dtype


def _zero_mode_hsigma(f, sigma):
    # the real data here carry zero-mode mass, which the smoothing weight drops
    with pytest.warns(UserWarning, match="zero-mode"):
        return hsigma_norm(f, sigma)


_REAL_CAST_NORMS = {
    "lebesgue": partial(lebesgue_norm, p=3.0),
    "hsigma0": partial(hsigma_norm, sigma=0.0),
    "hsigma": partial(_zero_mode_hsigma, sigma=0.3),
    "amalgam-cube": partial(amalgam_norm, p=2.0, q=4.0, window=unit_cube_partition()),
    "amalgam-bump": partial(amalgam_norm, p=2.0, q=4.0,
                            window=WindowSpec("smooth-bump", radius=1.0, step=1.0)),
    "amalgam-gaussian": partial(amalgam_norm, p=3.0, q=1.5,
                                window=WindowSpec("gaussian", radius=0.25, step=1.0)),
}


@pytest.mark.parametrize("norm", _REAL_CAST_NORMS.values(), ids=_REAL_CAST_NORMS.keys())
@pytest.mark.parametrize("make", [gaussian_datum, spike_field])
@pytest.mark.parametrize("g", [GridSpec(1, 16.0, 512), GridSpec(2, 8.0, 64),
                               GridSpec(3, 4.0, 16)], ids=lambda g: f"n{g.n}")
def test_real_datum_norms_match_its_complex_cast(g, make, norm):
    f = make(g)
    cast = SampledField(g, f.values.astype(complex))
    assert f.values.dtype == np.float64 and cast.values.dtype == np.complex128
    assert norm(f).value == norm(cast).value


# one accepted theorem tuple per dimension
RATIO_TUPLES = {1: ExponentTuple(n=1, sigma="0.3", qt=2, rt="inf", q=10, r="inf"),
                2: ExponentTuple(n=2, sigma="0.3", qt=2, rt="inf", q="20/7", r="inf"),
                3: ExponentTuple(n=3, sigma="0.7", qt=2, rt="inf", q="5/2", r="inf")}


# the ids keep the "window_x0" of the unit-cube cases from when the space window
# was a parameter, so each case keeps its name
@pytest.mark.parametrize("g", [GridSpec(1, 8.0, 4096), GridSpec(2, 8.0, 64),
                               GridSpec(3, 2.0, 16)],
                         ids=["window_x0-g0", "window_x0-g1", "window_x0-g2"])
@pytest.mark.parametrize("weak", [False, True])
@pytest.mark.parametrize("ntimes", [1, 21, 55])
def test_streamed_ratio_is_the_spacetime_norm(g, weak, ntimes):
    # 4096 samples a slice: blocks of 16 instants, so 21 and 55 end on a partial block
    times = np.linspace(0.05, 3.0, ntimes) if ntimes > 1 else np.array([0.5])
    tup = RATIO_TUPLES[g.n]
    f = modulated_gaussian(g, width=1.0, mode=g.npts // 4)
    res = strichartz_ratio(f, tup, times=times, weak=weak)
    values = np.concatenate([block for _, block in evolve_blocks(f, times)])
    exps = (to_float(e) for e in (tup.qt, tup.q, tup.rt, tup.r))
    want = spacetime_amalgam_norm([values], g, times, *exps, weak=weak)
    assert res.numerator == want


def slice_norms(f, times, rt, r):
    """W(L^rt, L^r) unit-cube norm of each slice of f's free evolution."""
    return np.concatenate([_amalgam_norms(block, rt, r, unit_cube_partition(), f.grid)[0]
                           for _, block in evolve_blocks(f, times)])


def time_norm(spatial, times, qt, q):
    """The space-time norm's time reduction of a (T,) vector of spatial norms: slices
    that are constant on a one-cube lattice have exactly those norms."""
    return spacetime_amalgam_norm([np.multiply.outer(spatial, np.ones(8))],
                                  GridSpec(1, 0.5, 8), times, qt, q, np.inf, np.inf)


class TestTensorProducts:
    """The modulated datum and its free evolution are tensor products of n = 1 factors,
    and unit-cube norms of a tensor product are products of the factors' norms."""

    TIMES = np.array([-3.0, -0.5, 0.0, 1.0, 4.0])

    @pytest.mark.parametrize("n, length, npts", [(2, 8.0, 64), (3, 8.0, 32)])
    @pytest.mark.parametrize("rt, r", [(2.0, 4.0), (3.0, np.inf), (np.inf, 2.0),
                                       (np.inf, np.inf), (4.0, 6.0), (2.0, 2.0)])
    def test_slice_norms_are_products(self, n, length, npts, rt, r):
        one = slice_norms(modulated_gaussian(GridSpec(1, length, npts)), self.TIMES, rt, r)
        many = slice_norms(modulated_gaussian(GridSpec(n, length, npts)), self.TIMES, rt, r)
        np.testing.assert_allclose(many, one ** n, rtol=1e-10, atol=0)

    def test_ratio_numerator_from_factors(self):
        # the ratio_n2 tuple on a 64^2 lattice of step 1/2
        tup, times = RATIO_TUPLES[2], default_ratio_times(t_outer=8.0)
        num = strichartz_ratio(modulated_gaussian(GridSpec(2, 16.0, 64), mode=40), tup,
                               times=times).numerator
        one = slice_norms(modulated_gaussian(GridSpec(1, 16.0, 64), mode=40), times,
                          np.inf, np.inf)
        assert num == pytest.approx(time_norm(one ** 2, times, 2.0, 20 / 7), rel=1e-10)

    def test_box_free_ratio_n2_numerator(self):
        # ratio_n2 (n = 2, dx = 1/4, xi_0 = 40 pi / 16 per axis, |t| <= 32) from one factor
        # on a box of half-length 256, where the packet no longer wraps: the lattice value
        # without the periodic box, which the 2-D lattice at L = 16 overstates by 6%
        times = default_ratio_times()
        one = slice_norms(modulated_gaussian(GridSpec(1, 256.0, 2048), mode=640), times,
                          np.inf, np.inf)
        assert time_norm(one ** 2, times, 2.0, 20 / 7) == pytest.approx(1.0075629, abs=1e-6)


class TestBilinear:
    def _pair(self, seed):
        g = GridSpec(1, 8.0, 64)
        times = np.linspace(-1.0, 1.0, 7)
        F = SpaceTimeField(g, times, np.array([band_limited_field(g, seed + i).values
                                               for i in range(7)]))
        G = SpaceTimeField(g, times, np.array([band_limited_field(g, 500 + seed + i).values
                                               for i in range(7)]))
        return F, G

    def test_diagonal_nonnegative(self):
        F, _ = self._pair(3)
        val = bilinear_form(F, F, 0.3)
        assert val.real >= 0
        assert abs(val.imag) <= 1e-10 * max(val.real, 1e-30)

    def test_zero_argument(self):
        F, G = self._pair(4)
        Z = SpaceTimeField(F.grid, F.times,
                           np.array([np.zeros(F.grid.shape)] * len(F.times)))
        assert bilinear_form(Z, G, 0.3) == 0

    def test_factorization_identity(self):
        for seed in range(0, 100, 2):
            F, G = self._pair(seed)
            a = bilinear_form(F, G, 0.3)
            b = factorized_bilinear_form(F, G, 0.3)
            assert abs(a - b) <= 1e-8 * max(abs(a), 1e-30)

    def test_grid_mismatch_rejected(self):
        F, _ = self._pair(1)
        g2 = GridSpec(1, 8.0, 128)
        times = F.times
        G = SpaceTimeField(g2, times, np.array([band_limited_field(g2, i).values
                                                for i in range(len(times))]))
        with pytest.raises(ValueError):
            bilinear_form(F, G, 0.3)


class TestPropertySuite:
    def test_default_run_passes(self):
        rep = property_suite(seed=0, corpus_size=40)
        assert rep.passed, rep.summary()

    def test_spike_corpus_included(self):
        rep = property_suite(seed=5, corpus_size=16)
        assert rep.passed

    def test_mutation_hook_fails_suite(self, monkeypatch):
        def corrupted(values, p, q, window, grid):
            norms, blocks = _amalgam_norms(values, p, q, window, grid)
            return norms * 0.9, blocks  # deliberately wrong

        monkeypatch.setattr(verify, "_amalgam_norms", corrupted)
        rep = property_suite(seed=0, corpus_size=8)
        assert not rep.passed
        assert rep.results[0].counterexample["index"] == 0  # the first failing field

    @pytest.mark.parametrize("k", [0, 3, 7])
    def test_corrupted_row_is_the_counterexample(self, k, monkeypatch):
        # row k of every stack the suite's norms see: field k, or field k plus field k + 1
        # in the triangle check; 10 N + 1 is not homogeneous, so homogeneity fails too.
        # The inclusion check compares two norms of one field, and a monotone corruption
        # of both keeps the comparison's outcome, so it passes; log(10 N + 1) is a convex
        # increasing function of log N, so log-convexity passes too
        def corrupted(values, p, q, window, grid):
            norms, blocks = _amalgam_norms(values, p, q, window, grid)
            norms[k] = 10.0 * norms[k] + 1.0
            return norms, blocks

        monkeypatch.setattr(verify, "_amalgam_norms", corrupted)
        rep = property_suite(seed=0, corpus_size=8)
        label = f"spike[{k}]" if k % 4 == 3 else f"band-limited[{k}]"
        hooked = {"diagonal identity W(p,p) = L^p (unit cubes)",
                  "homogeneity of the amalgam norm", "triangle inequality"}
        assert {r.name for r in rep.results if not r.passed} == hooked
        for r in rep.results:
            if r.name in hooked:
                assert (r.counterexample["index"], r.counterexample["label"]) == (k, label)
        passed = {r.name for r in rep.results if r.passed}
        assert {"weak Lorentz <= strong", "log-convexity in (1/p, 1/q) (interpolation)"} <= passed

    def test_mutation_hook_reaches_the_inclusion_check(self, monkeypatch):
        # only the W(L^2, L^4) norms are wrong: the inclusion into W(L^2, L^4) fails, and
        # homogeneity and the triangle inequality, which scale by 1000 on both sides, hold
        def corrupted(values, p, q, window, grid):
            norms, blocks = _amalgam_norms(values, p, q, window, grid)
            return (norms * 1000.0 if (p, q) == (2.0, 4.0) else norms), blocks

        monkeypatch.setattr(verify, "_amalgam_norms", corrupted)
        rep = property_suite(seed=0, corpus_size=8)
        assert [r.name for r in rep.results if not r.passed] == [
            "inclusion with constant 1 (unit cubes)"]

    def test_corrupted_pairing_is_the_counterexample(self, monkeypatch):
        # bounds halved below the pairing from the second pair (fields 2 and 3) on: only
        # the pairing property calls verify.holder_pairing, and it names its first pair
        calls = []

        def corrupted(F, G, *exps):
            value, bound, holds = holder_pairing(F, G, *exps)
            calls.append(holds)
            if len(calls) >= 2:
                bound = value / 2
            return value, bound, value <= bound

        monkeypatch.setattr(verify, "holder_pairing", corrupted)
        rep = property_suite(seed=0, corpus_size=8)
        (bad,) = [r for r in rep.results if not r.passed]
        assert bad.name == "pairing inequality, constant 1"
        worst = bad.counterexample
        assert (worst["index"], worst["label"]) == (2, "band-limited[2]")
        assert worst["detail"].startswith("pair 2: ")
        assert len(calls) == 4 and all(calls)

    def test_only_log_convexity_catches_an_exponent_dependent_factor(self, monkeypatch):
        # exp(-5 (1/p - 1/q)^2) is 1 on the diagonal, and every other property compares
        # norms whose exponent pairs share |1/p - 1/q|; on the line from (1/p, 1/q) =
        # (0, 1) to (1, 0) it lifts the interior norms above the endpoints' geometric mean
        def corrupted(values, p, q, window, grid):
            norms, blocks = _amalgam_norms(values, p, q, window, grid)
            return norms * np.exp(-5.0 * (1 / p - 1 / q) ** 2), blocks

        monkeypatch.setattr(verify, "_amalgam_norms", corrupted)
        rep = property_suite(seed=0, corpus_size=100)
        assert [r.name for r in rep.results if not r.passed] == [
            "log-convexity in (1/p, 1/q) (interpolation)"]

    @pytest.mark.parametrize("size", [-3, 0, 1])
    def test_fewer_than_two_fields_rejected(self, size):
        # with no pair the pairing check would pass vacuously
        with pytest.raises(ValueError, match="corpus size"):
            property_suite(seed=0, corpus_size=size)

    def test_deterministic_given_seed(self):
        a = property_suite(seed=3, corpus_size=12)
        b = property_suite(seed=3, corpus_size=12)
        assert a.summary() == b.summary()


class TestManifests:
    def test_manifest_lifecycle(self, tmp_path, monkeypatch):
        seen = []

        def handler(args, outdir):
            seen.append(json.loads((outdir / "manifest.json").read_text()))
            return 0, {"value": 1.5}

        monkeypatch.setattr(cli, "_cmd_suite", handler)
        assert cli.run(["suite", "--seed", "1", "--out", str(tmp_path)]) == 0
        (during,) = seen
        assert during["status"] == "incomplete" and during["wall_time_s"] is None
        assert during["params"]["seed"] == 1
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["status"] == "complete"
        assert data["value"] == 1.5
        assert data["wall_time_s"] is not None

    def test_csv_deterministic_bytes(self, tmp_path):
        rows = [(0.1, 1 / 3, "x"), (2.0, np.pi, "y")]
        cli.write_csv(tmp_path / "a.csv", ["t", "v", "k"], rows)
        cli.write_csv(tmp_path / "b.csv", ["t", "v", "k"], rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

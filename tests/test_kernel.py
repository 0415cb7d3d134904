import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gamma, gammaln, hyp1f1

from amalgam.grid import GridSpec, SampledField, _shells
from amalgam.propagator import (
    KERNEL_RTOL,
    _laguerre,
    kernel_amalgam_profile,
    kernel_bound,
    kernel_eval,
    profile_times,
)
from amalgam.wiener import amalgam_norm, unit_cube_partition

# high-precision reference values for K_t(x), computed with mpmath from
# the kernel's confluent-hypergeometric closed form at 40 digits
REFERENCE_VALUES = [
    # (n, sigma, t, x, value)
    (1, 0.25, 5.0, 2.0, 0.3682427511292325 - 0.11097164645675855j),
    (1, 0.45, 0.1, 1.5, 2.8783643415572846 - 0.12977591725480864j),
    (2, 0.3, 1.0, 2.5, 0.09068680721493459 + 0.0012129498647535759j),
    (2, 0.7, 0.3, 1.2, 0.3142721352824883 - 0.03778707179626022j),
    (2, 0.9, 10.0, 4.0, 0.5950810794573073 - 0.0701463187469247j),
    (3, 0.6, 2.0, 3.0, 0.01010978756652676 - 0.00915756856863707j),
    (3, 1.2, 0.5, 0.7, 0.08493395792298788 - 0.03816297729257417j),
    (3, 1.4, 1.0, 0.0, 0.23801310190051947 - 0.0376975719344206j),
]


def mp_kernel(n, sigma, t, x, dps=30):
    """K_t(x) from its Kummer-function closed form in mpmath (test oracle)."""
    with mp.workdps(dps):
        a = mp.mpf(n) / 2 - mp.mpf(sigma)
        b = mp.mpf(n) / 2
        t = mp.mpf(t)
        val = ((4 * mp.pi) ** (-b) * mp.gamma(a) / mp.gamma(b)
               * mp.mpc(0, t) ** (-a) * mp.hyp1f1(a, b, mp.mpc(0, mp.mpf(x) ** 2 / (4 * t))))
        return complex(val)


def mollified_power_ft(n, power, w, radii):
    """(2 pi)^{-n} INT |xi|^{-power} exp(-w |xi|^2) exp(i x.xi) dxi for real w > 0 (test oracle).

        = (4 pi)^{-n/2} Gamma(a)/Gamma(b) w^{-a} M(a; b; -|x|^2/(4w)),
          a = (n - power)/2,  b = n/2,

    for power < n, with scipy's Kummer function on the negative real axis.
    """
    a = (n - power) / 2.0
    b = n / 2.0
    pref = (4.0 * np.pi) ** (-n / 2.0) * np.exp(gammaln(a) - gammaln(b)) * w ** -a
    return pref * hyp1f1(a, b, -np.asarray(radii, float) ** 2 / (4.0 * w))


def chirp_z(g, h, x0, dx, m):
    """S_k = sum_j g_j exp(i (x0 + k dx)(j + 1/2) h) for k < m (test oracle).

    Bluestein's chirp-z transform: with theta = dx h, kj = (k^2 + j^2 - (k - j)^2)/2
    turns the sum into a convolution with the chirp exp(-i theta l^2/2), which one
    FFT of length >= len(g) + m - 1 evaluates.
    """
    j, k = np.arange(len(g)), np.arange(m)
    theta = dx * h
    a = g * np.exp(1j * (x0 * h * (j + 0.5) + 0.5 * theta * j ** 2))
    size = 1 << (len(g) + m - 2).bit_length()
    lags = np.arange(size)
    lags = np.where(lags < m, lags, lags - size)  # k - j, modulo size
    conv = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(np.exp(-0.5j * theta * lags ** 2)))
    return np.exp(0.5j * theta * (k ** 2 + k)) * conv[:m]


def mp_errors(ks, n, sigma, t, xs):
    """Absolute errors of ks = kernel_eval(n, sigma, t, xs) against mpmath, and the
    exact moduli."""
    want = np.array([mp_kernel(n, sigma, t, x) for x in xs])
    return np.abs(ks.values - want), np.abs(want)


def envelope(n, sigma, t, x):
    """Ridge plus Riesz-tail moduli, the scale of the kernel's error bound."""
    y1 = 1.0 + x ** 2 / (4.0 * abs(t))
    tail = gamma(n / 2.0 - sigma) / gamma(sigma) if sigma > 0 else 0.0
    return ((4.0 * np.pi) ** (-n / 2.0) * abs(t) ** (sigma - n / 2.0)
            * (y1 ** -sigma + tail * y1 ** (sigma - n / 2.0)))


class TestKernelEval:
    def test_gamma_function_oracle(self):
        # scalar quadrature of the radialized integral collapses, after
        # u = xi^2, to a Gamma-function value with phase -pi(1-2s)/4
        for sg in (0.05, 0.2, 0.3, 0.45):
            ks = kernel_eval(1, sg, 1.0, [0.0])
            exact = (1.0 / (2 * np.pi)) * gamma((1 - 2 * sg) / 2) \
                * np.exp(-1j * np.pi * (1 - 2 * sg) / 4)
            assert abs(ks.values[0] - exact) <= 1e-6 * abs(exact)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_sigma0_modulus_uniform(self, n, t):
        xs = np.linspace(0.0, 16.0 if n == 1 else 8.0, 23)
        ks = kernel_eval(n, 0.0, t, xs)
        target = (4.0 * np.pi * t) ** (-n / 2.0)
        assert np.max(np.abs(np.abs(ks.values) - target)) <= 1e-6 * target

    def test_sigma0_modulus_3d(self):
        ks = kernel_eval(3, 0.0, 0.5, np.linspace(0.0, 4.0, 9))
        target = (4.0 * np.pi * 0.5) ** -1.5
        assert np.max(np.abs(np.abs(ks.values) - target)) <= 1e-6 * target

    def test_even_in_x(self):
        a = kernel_eval(1, 0.3, 2.0, [1.7])
        b = kernel_eval(1, 0.3, 2.0, [-1.7])
        assert abs(a.values[0] - b.values[0]) < 1e-10

    def test_time_conjugation(self):
        a = kernel_eval(1, 0.3, 2.0, [3.0])
        b = kernel_eval(1, 0.3, -2.0, [3.0])
        assert abs(a.values[0] - np.conj(b.values[0])) < 1e-10

    @pytest.mark.parametrize("n,sigma,t,x,ref", REFERENCE_VALUES)
    def test_reference_values(self, n, sigma, t, x, ref):
        ks = kernel_eval(n, sigma, t, [x])
        assert abs(ks.values[0] - ref) <= 2e-6 * abs(ref)

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            kernel_eval(1, 0.3, 0.0, [1.0])

    def test_symbol_exponent_range(self):
        with pytest.raises(ValueError):
            kernel_eval(1, 0.5, 1.0, [1.0])  # 2 sigma = 1 = n

    def test_far_field_accurate(self):
        # small t, large x: |x|^2/4t reaches 51200 on the stationary-phase ridge
        xs = np.linspace(0, 64, 9)
        ks = kernel_eval(1, 0.3, 0.02, xs)
        err, modulus = mp_errors(ks, 1, 0.3, 0.02, xs)
        assert np.all(err <= KERNEL_RTOL * modulus)

    def test_sigma0_free_kernel_exact(self):
        t, x = 1.0, 0.5
        for n in (1, 2, 3):
            ks = kernel_eval(n, 0.0, t, [x])
            want = (4.0 * np.pi * 1j * t) ** (-n / 2.0) * np.exp(1j * x ** 2 / (4.0 * t))
            assert abs(ks.values[0] - want) <= 1e-12 * abs(want)

    @given(n=st.integers(1, 3), frac=st.floats(0.0, 1.0, exclude_max=True),
           log_t=st.floats(-2.5, 2.0), sign=st.sampled_from([1.0, -1.0]),
           y=st.floats(0.0, 2e6))
    # scipy's hyp1f1 erred by 5.2e-8 of the envelope here, where it switches method;
    # now 1e-15.  The worst seen is 2.6e-10, at y ~ 1.6e6: the rounding of
    # y = |x|^2 / 4|t| itself, times y
    @example(n=3, frac=0.3, log_t=0.0, sign=1.0, y=21.348)
    # sigma = n/4 next to a zero of K_t: 1.4e-5 relative to |K_t|
    @example(n=1, frac=0.5, log_t=0.0, sign=1.0, y=29.07268)
    @settings(max_examples=200, deadline=None)
    def test_matches_mpmath_closed_form(self, n, frac, log_t, sign, y):
        # |y| = |x|^2 / 4|t| up to 2e6; the bound is KERNEL_RTOL times the
        # envelope, which tracks |K_t| except where K_t nearly vanishes
        sigma = frac * n / 2.0
        t = sign * 10.0 ** log_t
        x = np.sqrt(4.0 * abs(t) * y)
        ks = kernel_eval(n, sigma, t, [x])
        bound = KERNEL_RTOL * envelope(n, sigma, t, x)
        assert ks.est_error[0] == pytest.approx(bound, rel=1e-12)
        assert mp_errors(ks, n, sigma, t, [x])[0][0] <= bound

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dense_sweep_within_1e9_of_envelope(self, n):
        # sigma at 0, just above it, mid-range and just below n/2; y = |x|^2/4t on both
        # sides of the series/quadrature switch at 8 and up to 2e6.  At t = 1/4 and with
        # x on a 2^-12 lattice, y = x^2 is exact, so the error is the evaluator's alone
        ys = np.r_[np.linspace(0.0, 16.0, 33), np.geomspace(16.0, 2e6, 25),
                   7.999999, 8.000001, 21.348]
        xs = np.round(np.sqrt(ys) * 4096.0) / 4096.0
        for frac in (0.0, 1e-6, 0.5, 1.0 - 1e-6):
            sigma = frac * n / 2.0
            ks = kernel_eval(n, sigma, 0.25, xs)
            err = np.abs(ks.values - [mp_kernel(n, sigma, 0.25, x) for x in xs])
            assert np.all(err <= 1e-9 * envelope(n, sigma, 0.25, xs)), frac


@pytest.mark.parametrize("alpha", [-0.7, -0.2, 0.3, 0.5])
def test_laguerre_rule_is_cached_exact_and_read_only(alpha):
    # the 16-node rule for u^alpha e^-u, weights summing to 1, integrates u^k exactly
    # for k <= 31: E[u^k] = Gamma(alpha + 1 + k) / Gamma(alpha + 1) for u ~ Gamma(alpha + 1)
    u, w = _laguerre(alpha)
    assert _laguerre(alpha)[0] is u
    for k in range(9):
        want = mp.gamma(alpha + 1 + k) / mp.gamma(alpha + 1)
        assert float(np.sum(w * u ** k)) == pytest.approx(float(want), rel=1e-12)
    for a in (u, w):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def lattice_radii(grid):
    """|x| at every lattice point, flat, with no shell index."""
    return np.sqrt(sum(c ** 2 for c in grid.meshgrid())).ravel()


class TestProfileOnLattice:
    # the profile evaluates K_t once per shell of equal |x|; evaluating it at
    # every lattice radius instead must give the same numbers, bit for bit.
    # At sigma = n/4, K_t has zeros, so the 1%-of-peak cut of est_error bites.
    @pytest.mark.parametrize("sigma,grid", [(0.25, GridSpec(1, 16.0, 512)),
                                            (0.5, GridSpec(2, 8.0, 64)),
                                            (0.75, GridSpec(3, 4.0, 16))],
                             ids=["n1", "n2", "n3"])
    def test_matches_kernel_eval_at_every_radius(self, sigma, grid):
        times = np.array([0.05, 1.3, 7.0])
        prof = kernel_amalgam_profile(sigma, "inf", 10, times, grid)
        for t, value, est in zip(times, prof.values, prof.est_error):
            ks = kernel_eval(grid.n, sigma, t, lattice_radii(grid))
            fld = SampledField(grid, ks.values.reshape(grid.shape))
            assert value == amalgam_norm(fld, np.inf, 5.0, unit_cube_partition()).value
            modulus = np.abs(ks.values)
            sig = modulus >= 0.01 * modulus.max()
            assert est == np.max(ks.est_error[sig] / modulus[sig])


class TestKernelBound:
    def test_branch_agreement_at_half(self):
        assert kernel_bound(2, 1.0, 1.0, 0.0) == pytest.approx(1.0)

    def test_large_order_example(self):
        assert kernel_bound(1, 0.6, 1.0, 0.0) == pytest.approx(1.0)

    def test_small_order_substitution(self):
        # |t|^-(n/2 - gamma) (x^2 + |t|)^-(gamma/2) at n=1, gamma=0.4,
        # t=4, x=0: 4^-0.1 * 4^-0.2 = 4^-0.3
        assert kernel_bound(1, 0.4, 4.0, 0.0) == pytest.approx(4.0 ** -0.3, rel=1e-12)

    @given(st.integers(1, 3), st.floats(0.05, 0.95), st.floats(0.05, 20.0),
           st.floats(0.0, 30.0))
    @settings(max_examples=300, deadline=None)
    def test_branch_continuity(self, n, frac, t, x):
        # the two branches must agree at gamma = n/2 from both sides
        eps = 1e-9
        g0 = n / 2.0 - eps
        g1 = n / 2.0 + eps
        lo = kernel_bound(n, g0, t, x)
        hi = kernel_bound(n, g1, t, x)
        assert lo == pytest.approx(hi, rel=1e-5)

    def test_gamma_range_enforced(self):
        with pytest.raises(ValueError):
            kernel_bound(1, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            kernel_bound(2, 2.0, 1.0, 0.0)

    def test_pointwise_domination_sample(self):
        # |K_t(x)| <= C * bound over a small (x, t) lattice; C stable
        # under sampling refinement (full-scale run in acceptance)
        sigma = 0.3
        xs = np.linspace(0.0, 10.0, 21)
        ts = np.geomspace(0.1, 10.0, 11)
        ratios = []
        for t in ts:
            ks = kernel_eval(1, sigma, float(t), xs)
            ratios.append(np.abs(ks.values) / kernel_bound(1, 2 * sigma, float(t), xs))
        C = float(np.max(ratios))
        assert np.isfinite(C) and C > 0


class TestMollifiedPowerFt:
    def test_sigma0_reduces_to_gaussian(self):
        xs = np.linspace(0, 10, 11)
        w = 0.7
        got = mollified_power_ft(1, 0.0, w, xs)
        want = (4.0 * np.pi * w) ** -0.5 * np.exp(-xs ** 2 / (4 * w))
        assert np.max(np.abs(got - want)) < 1e-14

    def test_riesz_limit_large_x(self):
        # for x^2 >> w the mollification is invisible: the transform of
        # the bare power law emerges
        sigma, w, n = 0.3, 1e-3, 1
        x = np.array([30.0])
        got = mollified_power_ft(n, 2 * sigma, w, x)[0]
        riesz = (2 ** (-2 * sigma) * np.pi ** (-n / 2)
                 * gamma((n - 2 * sigma) / 2) / gamma(sigma)) * 30.0 ** (2 * sigma - n)
        assert got == pytest.approx(riesz, rel=1e-6)


class TestKernelAmalgamProfile:
    def test_sigma0_reference(self):
        g = GridSpec(1, 32.0, 1024)
        times = np.geomspace(0.1, 10.0, 7)
        prof = kernel_amalgam_profile(0.0, "inf", "inf", times, g)
        want = (4.0 * np.pi * times) ** -0.5
        assert np.max(np.abs(prof.values - want) / want) < 1e-4

    def test_positive_decreasing(self):
        g = GridSpec(1, 32.0, 1024)
        times = profile_times(0.01, 100.0, per_decade=6)
        prof = kernel_amalgam_profile(0.3, "inf", "inf", times, g)
        assert np.all(prof.values > 0)
        assert np.all(np.diff(prof.values) < 0)

    def test_brute_force_spot_values(self):
        # single-epsilon dense direct summation, no extrapolation and no
        # FFT folding, as an independent check of three profile points
        g = GridSpec(1, 8.0, 256)
        sigma, rt, r = 0.3, np.inf, 10.0
        times = np.array([2.0, 5.0, 10.0])
        prof = kernel_amalgam_profile(sigma, rt, r, times, g)
        xs = np.abs(g.axis_points())
        for tval, pval in zip(times, prof.values):
            eps = 1e-4 * min(tval, 4 * tval ** 2 / 64.0)
            P = 8.0 + 2 * np.sqrt(np.log(1e9)) * (tval / np.sqrt(eps) + np.sqrt(eps))
            h = 2 * np.pi / P
            nodes = int(np.ceil((np.sqrt(np.log(1e9)) + 1.5) / np.sqrt(eps) / h))
            xi = (np.arange(nodes) + 0.5) * h
            u = tval - 1j * tval
            resid = np.exp(-(eps + 1j * tval) * xi ** 2) \
                - (1.0 + u * xi ** 2) * np.exp(-(eps + tval) * xi ** 2)
            gvec = resid * xi ** (-2 * sigma)
            # the cosine sum at the lattice's x_m = -L + m dx is (S(x_m) + S(-x_m))/2,
            # and -x_m = x_{N-m}, so S is taken at the N + 1 points -L, ..., L
            S = chirp_z(gvec, h, -g.length, g.dx, g.npts + 1)
            mild = (h / np.pi) * (S[:-1] + S[:0:-1]) / 2
            add = mollified_power_ft(1, 2 * sigma, eps + tval, xs) \
                + u * mollified_power_ft(1, 2 * sigma - 2, eps + tval, xs)
            brute = SampledField(g, (mild + add).reshape(g.shape))
            want = amalgam_norm(brute, np.inf, r / 2, unit_cube_partition()).value
            assert pval == pytest.approx(want, rel=1e-3)

    @pytest.mark.parametrize("n,sigma,grid", [(2, 0.3, GridSpec(2, 16.0, 128)),
                                              (3, 0.6, GridSpec(3, 4.0, 16))])
    def test_multidimensional_lattice(self, n, sigma, grid):
        # the 2-D case once asked for a 27 GiB outer product at t = 0.02
        times = profile_times(0.02, 50.0, 8)
        prof = kernel_amalgam_profile(sigma, "inf", 10, times, grid)
        assert np.all(np.isfinite(prof.values)) and np.all(prof.values > 0)
        t = float(times[0])
        radii = lattice_radii(grid)[[0, 5, 137, grid.npts ** n // 2, grid.npts ** n - 1]]
        ks = kernel_eval(n, sigma, t, radii)
        for x, got in zip(radii, ks.values):
            assert abs(got - mp_kernel(n, sigma, t, x)) <= KERNEL_RTOL * envelope(n, sigma, t, x)

    @pytest.mark.parametrize("grid", [GridSpec(1, 16.0, 512), GridSpec(2, 8.0, 64),
                                      GridSpec(3, 4.0, 16)], ids=lambda g: f"n{g.n}")
    def test_real_modulus_matches_the_complex_kernel(self, grid):
        # the profile holds |K_t| as a real field; complex K_t gathered per shell to the
        # lattice gives the same norms bit for bit
        sigma, rt, r = 0.3, 6.0, 10.0
        times = profile_times(0.02, 50.0, 4)
        uniq, inv = _shells(grid)
        want = [amalgam_norm(SampledField(grid, kernel_eval(grid.n, sigma, t, uniq)
                                          .values[inv].reshape(grid.shape)),
                             rt / 2, r / 2, unit_cube_partition()).value for t in times]
        prof = kernel_amalgam_profile(sigma, rt, r, times, grid)
        assert np.array_equal(prof.values, want)

    def test_rejects_nonpositive_times(self):
        g = GridSpec(1, 8.0, 256)
        with pytest.raises(ValueError):
            kernel_amalgam_profile(0.3, "inf", "inf", [0.0, 1.0], g)


class TestProfileTimes:
    def test_split_and_density(self):
        ts = profile_times(0.02, 50.0, 24)
        assert ts[0] == pytest.approx(0.02)
        assert ts[-1] == pytest.approx(50.0)
        assert np.any(ts == 1.0)
        assert np.sum(ts <= 1.0) >= 12 and np.sum(ts >= 1.0) >= 12

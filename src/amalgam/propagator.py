"""Free-dispersion propagator with fractional smoothing, and its kernel.

The evolution operator acts in frequency as the multiplier
exp(-i t |xi|^2) |xi|^(-sigma).  Its convolution kernel

    K_t(x) = (2 pi)^{-n} INT exp(i(x.xi - t |xi|^2)) |xi|^{-2 sigma} dxi

is the analytic continuation w -> i t of the Gaussian-mollified power
transform, a confluent-hypergeometric (Kummer M) function of |x|^2 / 4t
(DLMF 13.2, 13.7; https://dlmf.nist.gov/13):

    K_t(x) = (4 pi)^{-n/2} Gamma(a)/Gamma(b) (i t)^{sigma - n/2}
             * M(a; b; i |x|^2 / 4t),     a = n/2 - sigma,  b = n/2.

At sigma = 0 it reduces to the free kernel (4 pi i t)^{-n/2} exp(i|x|^2/4t).
M is evaluated in numpy (_kummer_iy): its Maclaurin series below
|x|^2/4t = 8, and above it the connection formula DLMF 13.2.41 with both U
functions as Laplace integrals (DLMF 13.4.4) taken by a 16-node generalized
Gauss-Laguerre rule from its recurrence, with no linear algebra.  Every sample
is exact to KERNEL_RTOL times the kernel's envelope (see kernel_eval); compared
with mpmath, the worst deviation found for n = 1..3, all sigma and |x|^2/4t up
to 2e6 is 1.2e-13 of the envelope, at the top of the series' range.

Everything is pure; batch loops run in a fixed order.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (
    GridSpec,
    NormResult,
    SampledField,
    SpaceTimeField,
    _blocks,
    _euclidean,
    _instants,
    _lq,
    _shells,
    trapezoid_weights,
)
from .wiener import amalgam_norm, unit_cube_partition

__all__ = [
    "KernelSamples",
    "DecayProfile",
    "hsigma_norm",
    "evolve_blocks",
    "adjoint_accumulate",
    "kernel_eval",
    "kernel_bound",
    "kernel_amalgam_profile",
    "profile_times",
    "KERNEL_RTOL",
    "ZERO_MODE_TOL",
]

ZERO_MODE_TOL = 1e-10


# ---------------------------------------------------------------------------
# evolution in frequency space
# ---------------------------------------------------------------------------

def hsigma_norm(fld: SampledField, sigma: float) -> NormResult:
    """Homogeneous Sobolev norm: |xi|^sigma weighted spectral L2 norm of the Fourier
    coefficients c, with the lattice's Parseval weight dx^n N^n (see grid).

    The zero mode carries weight 1 for sigma = 0 and weight 0 otherwise.  For
    sigma > 0, meta's zero_mode_fraction is its share (|c_0| / ||c||_2)^2 of the
    spectral l2 mass (0 for a zero field; it cannot overflow, as |c_0| <= ||c||_2),
    and a share of ZERO_MODE_TOL or above draws a warning: the norm undercounts
    such a field.  A norm beyond the float64 range is a ValueError.
    """
    sigma = float(sigma)
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    g = fld.grid
    modulus = np.abs(_spectrum(fld.values, 0.0, g))
    w, zfrac, unit = g.cell_volume * g.size, 0.0, g.dxi * g.npts / 2 * math.sqrt(g.n)
    if sigma > 0:
        zfrac = float(modulus[(0,) * g.n] / (_lq(modulus.copy(), 2) or 1.0)) ** 2
        if zfrac >= ZERO_MODE_TOL:
            warnings.warn(f"zero-mode mass fraction {zfrac:.2e} >= {ZERO_MODE_TOL:.0e}; the "
                          "smoothing weight drops it, so the norm undercounts this field",
                          stacklevel=2)
        # w (|xi| / unit)^(2 sigma), 0 at xi = 0, with unit the largest |xi|, cannot overflow;
        # the norm is unit^sigma times its root, in logs where unit^sigma alone overflows
        w = w * _euclidean(*(g.axis_frequencies() / unit,) * g.n) ** (2.0 * sigma)
    value = float(_lq(modulus, 2, None, w))
    log_norm = math.log(value) + sigma * math.log(unit) if value else -math.inf
    if not log_norm < math.log(np.finfo(float).max):
        raise ValueError("the norm exceeds the float64 range")
    value = value * unit ** sigma if sigma * math.log(unit) < 709.0 else math.exp(log_norm)
    return NormResult(value, "homogeneous-sobolev", {"zero_mode_fraction": zfrac})


# below 2^44 rad, adjacent float64 phases differ by at most 2^-9 rad
_PHASE_BOUND = 2.0 ** 44


def _spectrum(values: np.ndarray, sigma: float, g: GridSpec) -> np.ndarray:
    """The Fourier coefficients fftn / N^n of values (one field, or a (T, *shape) stack)
    in one complex buffer, scaled as they are copied, times |xi|^-sigma with 0 at xi = 0:
    the part of the evolution that every instant shares, and at sigma = 0 the spectrum
    that hsigma_norm weighs."""
    sigma = float(sigma)
    if not (0 <= sigma < g.n / 2.0):
        raise ValueError(
            f"sigma must lie in [0, n/2) = [0, {g.n / 2}), got {sigma}")
    spec = np.multiply(values, 1.0 / g.size, dtype=complex)
    np.fft.fftn(spec, axes=tuple(range(-g.n, 0)), out=spec)
    if sigma > 0:
        xi = _euclidean(*(g.axis_frequencies(),) * g.n)
        xi[(0,) * g.n] = np.inf  # inf^-sigma = 0: the smoothing weight drops the zero mode
        spec *= np.power(xi, -sigma, out=xi)
    return spec


def _propagate(spec: np.ndarray, times, g: GridSpec, out=None, weights=None) -> np.ndarray:
    """Slice k: exp(-i t_k |xi|^2) times a _spectrum (one spectrum, or spec[k] of a
    stack), in position space, in out: a new (T, *shape) array, or spec itself, which is
    then overwritten.  The multiplier is one factor exp(-i t_k xi_a^2) per axis, evaluated
    on the N/2 + 1 distinct |xi_a| and laid out in FFT order; with weights, their sum over
    the instants is taken in frequency first.  All slices go through one in-place ifftn, a
    bare sum.  The phase t |xi|^2 is checked below _PHASE_BOUND before any exp: the
    instants are monotone, so their ends bound it.
    """
    xa = np.abs(g.axis_frequencies()[:g.npts // 2 + 1])  # |j| = 0 .. N/2, the last from -N/2
    times = np.asarray(times, dtype=float)
    top = g.n * float(xa[-1]) ** 2
    if not max(abs(float(times[0])), abs(float(times[-1]))) * top < _PHASE_BOUND:
        first = next(t for t in times.tolist() if not abs(t) * top < _PHASE_BOUND)
        raise ValueError(f"the phase t |xi|^2 at t = {first} is not below 2^44, "
                         "so float64 cannot resolve it to 2^-9 rad")
    j = np.arange(g.npts)  # FFT position j holds |j| = min(j, N - j)
    factor = np.exp(np.multiply.outer(-1j * times, xa ** 2))[:, np.minimum(j, g.npts - j)]
    out = np.empty(times.shape + g.shape, dtype=complex) if out is None else out
    for a in range(g.n):
        shape = times.shape + (1,) * a + (-1,) + (1,) * (g.n - 1 - a)
        np.multiply(out if a else spec, factor.reshape(shape), out=out)
    if weights is not None:
        out = np.tensordot(weights, out, axes=1)
    return np.fft.ifftn(out, axes=tuple(range(-g.n, 0)), norm="forward", out=out)


def evolve_blocks(fld: SampledField, times, sigma: float = 0.0):
    """The free evolution with smoothing order sigma, one _blocks block of instants at a
    time: yields (instants, block) pairs, block the (k, *shape) slices at those instants,
    checked finite.  Unitary on L2 for sigma = 0.  The smoothing weight's zero frequency
    is set to zero, so data with zero-mode mass draw hsigma_norm's warning, once sigma
    has passed _spectrum's range check."""
    g = fld.grid
    times = _instants(times)
    spec = _spectrum(fld.values, sigma, g)
    if float(sigma) > 0:
        hsigma_norm(fld, sigma)
    for b in _blocks(len(times), g.size):
        block = _propagate(spec, times[b], g)
        finite = np.isfinite(block).reshape(len(block), -1).all(axis=1)
        if not finite.all():
            raise ValueError(f"field contains non-finite entries at t = {times[b][~finite][0]}")
        yield times[b], block


def adjoint_accumulate(stf: SpaceTimeField, sigma: float = 0.0) -> SampledField:
    """Time integral of the backward-evolved, smoothed slices.

    Discretizes INT exp(-i s Lap) |grad|^{-sigma} F(., s) ds with the
    trapezoid weights of the slice instants; adjoint (by construction) to
    evolve_blocks under the discrete space-time pairing.
    """
    g = stf.grid
    spec = _spectrum(stf.values, sigma, g)
    return SampledField(g, _propagate(spec, -stf.times, g, spec, trapezoid_weights(stf.times)))


# ---------------------------------------------------------------------------
# Kummer's function on the imaginary axis
# ---------------------------------------------------------------------------

# M(b - sigma; b; iy) is its Maclaurin series below y = _SWITCH, where its largest
# term is about e^8 and _TERMS terms reach 1e-19, and a _NODES-point quadrature
# above it, one _blocks block of abscissae at a time
_SWITCH, _TERMS, _NODES = 8.0, 50, 16


@functools.lru_cache(maxsize=16)
def _laguerre(alpha: float) -> tuple:
    """Nodes and weights (cached, read-only) of the _NODES-point Gauss rule for the Gamma(alpha
    + 1) law by the monic recurrence P_{k+1} = (u - 2k - alpha - 1) P_k - k (k + alpha) P_{k-1}:
    P_16's zeros in [0, 4 _NODES + 2 alpha + 2) (Gershgorin), each bisected on the float64 bit
    patterns by its Sturm count (above the i-th, P_0 .. P_16 agree in sign more than i times),
    and Christoffel weights 1 / sum_k P_k^2 / (k! (alpha + 1)_k), all at u = 0 if alpha = -1."""
    k = np.arange(_NODES)
    lo, hi = (np.full(_NODES, x).view(np.int64) for x in (0.0, 4.0 * _NODES + 2.0 * alpha + 2.0))
    for _ in range(64):  # 63 halvings close a bit gap under 2^63; the 64th takes P_k at u = lo
        u = (mid := lo + (hi - lo) // 2).view(float)
        p = [0.0, np.ones(_NODES)]
        for d, e in zip(2.0 * k + alpha + 1.0, k * (k + alpha)):
            p.append((u - d) * p[-1] - e * p[-2])
        p = np.array(p[1:])
        above = (p[:-1] * p[1:] > 0).sum(axis=0) > k
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    norms = np.cumprod(np.r_[1.0, k[1:] * (k[1:] + alpha)])
    w = 1.0 / (p[:-1] ** 2 / norms[:, None]).sum(axis=0) if alpha > -1.0 else (k == 0) * 1.0
    for a in (u, w):
        a.setflags(write=False)
    return u, w


def _gamma_mean(c: float, alpha: float, sign: float, y: np.ndarray) -> np.ndarray:
    """E[(1 + sign i u/y)^c] for u ~ Gamma(alpha + 1), in real arithmetic, by the
    _laguerre rule."""
    u, w = _laguerre(alpha)
    out = np.empty(len(y), dtype=complex)
    # in place, in pieces, nodes-major: these passes are most of the kernel's time, their
    # memory stays fixed however many abscissae there are, and the node sums add whole rows
    for b in _blocks(len(y), _NODES):
        r = np.multiply.outer(u, 1.0 / y[b])
        phase = np.arctan(r)
        phase *= sign * c
        r *= r
        r += 1.0
        modulus = np.multiply(np.power(r, c / 2.0, out=r), w[:, None], out=r)
        re = np.cos(phase)
        re *= modulus
        im = np.sin(phase, out=phase)
        im *= modulus
        out[b] = re.sum(axis=0) + 1j * im.sum(axis=0)
    return out


def _kummer_iy(b: float, sigma: float, y: np.ndarray) -> np.ndarray:
    """M(a; b; iy) for a = b - sigma, 0 <= sigma < b and y >= 0 (DLMF 13.2.2).

    Above _SWITCH, the connection formula DLMF 13.2.41 (lower signs) splits M into
    two U functions, the Riesz-potential tail and the stationary-phase ridge of K_t.
    Each U's Laplace integral (DLMF 13.4.4), turned onto the ray where it decays,
    is an expectation E_a[f] = E[f(u)] over u ~ Gamma(a):

        M / Gamma(b) = e^{i pi a/2} y^-a / Gamma(sigma) E_a[(1 - iu/y)^(sigma-1)]
                     + e^{-i pi sigma/2} y^-sigma / Gamma(a) e^{iy} E_sigma[(1 + iu/y)^(a-1)].
    """
    if sigma == 0.0:
        return np.exp(1j * y)
    a = b - sigma
    out = np.empty(y.shape, dtype=complex)
    low = y < _SWITCH
    # series: sum_k c_k (iy)^k = P(y^2) + i y Q(y^2), its two halves by Horner
    k = np.arange(_TERMS - 1)
    coef = np.cumprod(np.r_[1.0, (a + k) / ((b + k) * (k + 1.0))])
    coef[2::4] *= -1.0
    coef[3::4] *= -1.0
    ys = y[low]
    out[low] = np.polyval(coef[-2::-2], ys * ys) + 1j * ys * np.polyval(coef[::-2], ys * ys)
    # quadrature
    ys = y[~low]
    tail = (math.exp(math.lgamma(b) - math.lgamma(sigma)) * np.exp(0.5j * math.pi * a)
            * ys ** -a * _gamma_mean(sigma - 1.0, a - 1.0, -1.0, ys))
    ridge = (math.exp(math.lgamma(b) - math.lgamma(a)) * np.exp(-0.5j * math.pi * sigma)
             * ys ** -sigma * _gamma_mean(a - 1.0, sigma - 1.0, 1.0, ys))
    out[~low] = tail + ridge * (np.cos(ys) + 1j * np.sin(ys))
    return out


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

# Accuracy of every kernel sample relative to the kernel's envelope (see
# kernel_eval): |computed - exact| <= KERNEL_RTOL * envelope.
KERNEL_RTOL = 1e-7


def _peak(n: int, sigma: float, t: float) -> float:
    """|K_t(0)| = (4 pi)^{-b} Gamma(a)/Gamma(b) |t|^{-a}, a = n/2 - sigma, b = n/2, for
    0 <= 2 sigma < n (checked)."""
    if not (0.0 <= 2.0 * sigma < n):
        raise ValueError(f"symbol exponent 2*sigma must lie in [0, n), got {2 * sigma}")
    a, b = n / 2.0 - sigma, n / 2.0
    try:
        return (4.0 * np.pi) ** -b * math.exp(math.lgamma(a) - math.lgamma(b)) * abs(t) ** -a
    except OverflowError:  # of |t|^-a: the rest exceeds 1 only for a < 0.15, where |t|^-a < e^112
        raise ValueError(f"|K_t(0)| at t = {t} exceeds the float64 range") from None


@dataclass
class KernelSamples:
    """Kernel values on sample abscissae with their error bounds."""

    values: np.ndarray    # complex K_t at the abscissae
    est_error: np.ndarray  # KERNEL_RTOL * envelope


def kernel_eval(n: int, sigma: float, t: float, xs) -> KernelSamples:
    """Evaluate K_t at radial abscissae xs from its closed form.

    ``est_error`` is KERNEL_RTOL times the kernel's envelope, the sum of
    the moduli of its two large-|x| components (DLMF 13.7.2), with
    y = |x|^2 / 4|t|:

        (4 pi)^{-n/2} |t|^{sigma - n/2}
            * [(1 + y)^{-sigma} + Gamma(a)/Gamma(sigma) (1 + y)^{sigma - n/2}],

    the stationary-phase ridge plus the Riesz-potential tail.  The bound
    is not relative to |K_t| itself: where the two components interfere
    destructively K_t can vanish (exactly, at sigma = n/4, on the zeros
    of a Bessel function), while _kummer_iy's rounding error stays a fraction
    of the envelope.
    """
    n = int(n)
    if n not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
    sigma, t = float(sigma), float(t)
    if t == 0.0:
        raise ValueError("t must be nonzero (kernel is singular at t = 0)")
    radii = np.abs(np.asarray(xs, dtype=float).ravel())
    a, b = n / 2.0 - sigma, n / 2.0
    y = radii ** 2 / (4.0 * abs(t))
    # |K_t(0)| i^{-a}, and _peak checks sigma; t < 0 is the complex conjugate
    pref = _peak(n, sigma, t) * np.exp(-0.5j * math.pi * a)
    values = pref * _kummer_iy(b, sigma, y)
    if t < 0:
        values = values.conj()
    tail = math.exp(math.lgamma(a) - math.lgamma(sigma)) if sigma > 0 else 0.0
    envelope = ((4.0 * np.pi) ** -b * abs(t) ** -a
                * ((1.0 + y) ** -sigma + tail * (1.0 + y) ** -a))
    return KernelSamples(values=values, est_error=KERNEL_RTOL * envelope)


def kernel_bound(n: int, gamma: float, t, x):
    """Closed-form pointwise kernel bound, two branches split at n/2.

    |t|^{-(n/2 - gamma)} (|x|^2 + |t|)^{-gamma/2}   for 0 < gamma <= n/2,
    (|x|^2 + |t|)^{-(n - gamma)/2}                  for n/2 <= gamma < n;
    the branches agree at gamma = n/2.
    """
    gamma = float(gamma)
    if not (0.0 < gamma < n):
        raise ValueError(f"gamma must lie in (0, n) = (0, {n}), got {gamma}")
    t = np.asarray(t, dtype=float)
    if np.any(t == 0):
        raise ValueError("t must be nonzero")
    x = np.asarray(x, dtype=float)
    base = x ** 2 + np.abs(t)
    if gamma <= n / 2.0:
        return np.abs(t) ** (-(n / 2.0 - gamma)) * base ** (-gamma / 2.0)
    return base ** (-(n - gamma) / 2.0)


@dataclass
class DecayProfile:
    """h(t): windowed amalgam norm of the kernel per time instant, and its route."""

    times: np.ndarray
    values: np.ndarray
    est_error: np.ndarray
    route: str


def profile_times(tmin: float = 0.02, tmax: float = 50.0,
                  per_decade: int = 24) -> np.ndarray:
    """Log-spaced instants, per_decade points per decade, two runs joined at their shared 1."""
    if not (0 < tmin < 1 < tmax):
        raise ValueError("need 0 < tmin < 1 < tmax")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    ts = [np.geomspace(lo, hi, int(np.ceil((np.log10(hi) - np.log10(lo)) * per_decade)) + 1)
          for lo, hi in ((tmin, 1.0), (1.0, tmax))]  # not log10(hi / lo): 1 / tmin may overflow
    return np.concatenate([ts[0], ts[1][1:]])


def kernel_amalgam_profile(sigma: float, rt: float, r: float, times,
                           grid: GridSpec) -> DecayProfile:
    """h(t) = amalgam norm of K_t on unit cubes with exponents (rt/2, r/2), in the grid's
    dimension n.

    At rt = r = inf, h(t) = |K_t(0)| (_peak) in closed form on any grid: for 0 < a < b,
    Euler's integral (DLMF 13.4.1) makes M(a; b; iy) a Beta(a, b - a) average of e^{iys},
    so |M| <= M(a; b; 0) = 1 (at sigma = 0, M = e^{iy}); est_error is its rounding bound,
    8 + 2 |ln Gamma(a)| + a |ln t| ulps.  Other (rt, r) take the norm of K_t on the
    lattice, with kernel_eval's error bound relative to |K_t|.

    The region conditions are checkable (exponents.check("proposition", ...))
    but deliberately not enforced: probing outside the region is part of
    the point.
    """
    rt, r = float(rt), float(r)
    if not (rt >= 2 and r >= 2):
        raise ValueError("rt and r must lie in [2, inf]")
    times = np.asarray(times, dtype=float)
    bad = times[~((times > 0) & (times < np.inf))]
    if len(bad):
        raise ValueError(f"profile times must be positive and finite, got t = {bad[0]}")
    n, sigma = grid.n, float(sigma)
    if rt == r == np.inf:
        a = n / 2.0 - sigma
        values = np.array([_peak(n, sigma, t) for t in times.tolist()])
        ests = np.finfo(float).eps * (8.0 + 2.0 * abs(math.lgamma(a)) + a * np.abs(np.log(times)))
        route = "closed-form"
    else:
        values, ests, route = [], [], "lattice"
        # K_t is radial: one evaluation per shell of equal |x|, gathered to the lattice
        uniq, inv = _shells(grid)
        for t in times:
            ks = kernel_eval(n, sigma, float(t), uniq)
            # the norm reads only |K_t|, so the lattice holds it as a real field
            modulus = np.abs(ks.values)
            fld = SampledField(grid, modulus[inv].reshape(grid.shape))
            values.append(amalgam_norm(fld, rt / 2, r / 2, unit_cube_partition()).value)
            # relative error bound over the samples above 1% of the peak; every
            # shell occurs on the lattice, so the max over shells is the lattice max
            sig = modulus >= 0.01 * modulus.max()
            ests.append(float(np.max(ks.est_error[sig] / modulus[sig])))
    return DecayProfile(times, np.asarray(values), np.asarray(ests), route)

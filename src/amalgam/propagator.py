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
Every sample comes from one vectorized ``scipy.special.hyp1f1`` call and is
exact to KERNEL_RTOL times the kernel's envelope (see kernel_eval);
compared with mpmath, the worst deviation found is about 6e-8 of the
envelope, near |x|^2/4t ~ 21.

Everything is pure; batch loops run in a fixed order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .extreal import to_float
from .grid import (
    GridSpec,
    NormResult,
    SampledField,
    SpaceTimeField,
    _dft,
    _lq,
    trapezoid_weights,
)
from .wiener import WindowSpec, amalgam_norm

__all__ = [
    "KernelSamples",
    "DecayProfile",
    "hsigma_norm",
    "evolve",
    "evolve_series",
    "adjoint_accumulate",
    "kernel_eval",
    "kernel_on_grid",
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

def _zero_mode_fraction(spec: np.ndarray) -> float:
    """Share of the spectrum's l2 mass in the zero mode (0 for a zero spectrum)."""
    total = float(_lq(np.abs(spec), 2))
    if total == 0.0:
        return 0.0
    return float((np.abs(spec[(0,) * spec.ndim]) / total) ** 2)


def hsigma_norm(fld: SampledField, sigma: float) -> NormResult:
    """Homogeneous Sobolev norm: |xi|^sigma weighted spectral L2 norm.

    The zero mode carries weight 1 for sigma = 0 and weight 0 otherwise;
    data with significant zero-mode mass get a warning (the smoothing
    weight is singular there and the lattice convention matters).
    """
    return _hsigma_norm(_dft(fld.values, fld.grid), fld.grid, sigma)


def _hsigma_norm(spec: np.ndarray, g: GridSpec, sigma: float) -> NormResult:
    sigma = float(sigma)
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    w = (g.dxi / (2.0 * np.pi)) ** g.n
    if sigma > 0:
        xi = g.frequency_radii()
        with np.errstate(divide="ignore"):
            w = np.where(xi > 0, xi ** (2.0 * sigma), 0.0) * w
    value = float(_lq(np.abs(spec), 2, None, w))
    zfrac = _zero_mode_fraction(spec) if sigma > 0 else 0.0
    if sigma > 0 and zfrac >= ZERO_MODE_TOL:
        warnings.warn(
            f"zero-mode mass fraction {zfrac:.2e} >= {ZERO_MODE_TOL:.0e}; "
            "the smoothing weight drops it, so the norm undercounts this field",
            stacklevel=3,
        )
    return NormResult(
        value=value,
        space="homogeneous-sobolev",
        exponents={"sigma": sigma},
        meta={"n": g.n, "L": g.length, "N": g.npts, "zero_mode_fraction": zfrac},
    )


def _propagate(spec: np.ndarray, times, sigma: float, g: GridSpec,
               weights=None) -> np.ndarray:
    """Slice k: exp(-i t_k |xi|^2) |xi|^-sigma times spec (one spectrum, or spec[k]
    of a stack), in position space.  Built in place, T * N^n * 16 bytes, and
    inverse-transformed in one batched FFT; with weights, their sum over the
    instants is taken in frequency first.  The weight at xi = 0 is set to zero.
    """
    sigma = float(sigma)
    if not (0 <= sigma < g.n / 2.0):
        raise ValueError(
            f"sigma must lie in [0, n/2) = [0, {g.n / 2}), got {sigma}")
    xi2 = g.frequency_radii() ** 2
    out = np.multiply.outer(-1j * np.asarray(times, dtype=float), xi2)
    np.exp(out, out=out)
    if sigma > 0:
        with np.errstate(divide="ignore"):
            out *= np.where(xi2 > 0, xi2 ** (-sigma / 2.0), 0.0)
    out *= spec
    if weights is not None:
        out = np.tensordot(weights, out, axes=1)
    return _dft(out, g, inverse=True, out=out)


def evolve(fld: SampledField, t: float, sigma: float = 0.0) -> SampledField:
    """Apply the free evolution with smoothing order sigma at time t.

    For sigma = 0 the map is unitary on L2.  The zero frequency of the
    smoothing weight is set to zero; callers should use data with
    negligible zero-mode mass (generators in verify do).
    """
    g = fld.grid
    return SampledField(g, _propagate(_dft(fld.values, g), [t], sigma, g)[0], fld.label)


def evolve_series(fld: SampledField, times, sigma: float = 0.0) -> SpaceTimeField:
    """evolve() at each instant: one forward transform, one batched inverse."""
    g = fld.grid
    return SpaceTimeField(g, times, _propagate(_dft(fld.values, g), times, sigma, g))


def adjoint_accumulate(stf: SpaceTimeField, sigma: float = 0.0) -> SampledField:
    """Time integral of the backward-evolved, smoothed slices.

    Discretizes INT exp(-i s Lap) |grad|^{-sigma} F(., s) ds with the
    trapezoid weights of the slice instants; adjoint (by construction) to
    evolve_series under the discrete space-time pairing.
    """
    g = stf.grid
    acc = _propagate(_dft(stf.values, g), -stf.times, sigma, g,
                     weights=trapezoid_weights(stf.times))
    return SampledField(g, acc, "adjoint-accumulated")


# ---------------------------------------------------------------------------
# confluent-hypergeometric closed form for the mollified power symbol
# ---------------------------------------------------------------------------

def mollified_power_ft(n: int, power: float, w, radii: np.ndarray) -> np.ndarray:
    """(2 pi)^{-n} INT |xi|^{-power} exp(-w |xi|^2) exp(i x.xi) dxi.

        = (4 pi)^{-n/2} Gamma(a)/Gamma(b) w^{-a} M(a; b; -|x|^2/(4w)),
          a = (n - power)/2,  b = n/2,

    valid for power < n (the symbol is then locally integrable) and any
    w != 0 with Re w >= 0.  Real w > 0 is a Gaussian mollifier; imaginary
    w = i t continues it analytically to the kernel K_t, and the principal
    branch of w^{-a} gives the complex conjugate for t < 0.
    """
    from scipy.special import gammaln, hyp1f1  # here, not at the top: slow to import
    if w == 0 or np.real(w) < 0:
        raise ValueError("Gaussian width must be nonzero with Re w >= 0")
    a = (n - power) / 2.0
    b = n / 2.0
    pref = (4.0 * np.pi) ** (-n / 2.0) * np.exp(gammaln(a) - gammaln(b)) * w ** -a
    return pref * hyp1f1(a, b, -np.asarray(radii, float) ** 2 / (4.0 * w))


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

# Accuracy of every kernel sample relative to the kernel's envelope (see
# kernel_eval): |computed - exact| <= KERNEL_RTOL * envelope.
KERNEL_RTOL = 1e-7


@dataclass
class KernelSamples:
    """Kernel values on sample abscissae with their error bounds."""

    n: int
    gamma: float          # symbol exponent, = 2 sigma
    t: float
    xs: np.ndarray        # radial distances
    values: np.ndarray    # complex K_t at xs
    est_error: np.ndarray  # KERNEL_RTOL * envelope
    converged: np.ndarray  # all true: every sample meets its bound
    meta: dict = field(default_factory=dict)


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
    of a Bessel function), while hyp1f1's rounding error stays a fraction
    of the envelope.
    """
    from scipy.special import gammaln
    n = int(n)
    if n not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
    sigma = float(sigma)
    if not (0.0 <= 2.0 * sigma < n):
        raise ValueError(f"symbol exponent 2*sigma must lie in [0, n), got {2 * sigma}")
    t = float(t)
    if t == 0.0:
        raise ValueError("t must be nonzero (kernel is singular at t = 0)")
    radii = np.abs(np.asarray(xs, dtype=float).ravel())
    values = mollified_power_ft(n, 2.0 * sigma, 1j * t, radii)
    y1 = 1.0 + radii ** 2 / (4.0 * abs(t))
    tail = np.exp(gammaln(n / 2.0 - sigma) - gammaln(sigma))  # 0 at sigma = 0
    envelope = ((4.0 * np.pi) ** (-n / 2.0) * abs(t) ** (sigma - n / 2.0)
                * (y1 ** -sigma + tail * y1 ** (sigma - n / 2.0)))
    return KernelSamples(
        n=n, gamma=2.0 * sigma, t=t, xs=radii, values=values,
        est_error=KERNEL_RTOL * envelope,
        converged=np.ones(radii.shape, dtype=bool),
        meta={"nodes": radii.size},
    )


def kernel_on_grid(grid: GridSpec, sigma: float, t: float) -> KernelSamples:
    """K_t sampled on the full position lattice of a grid.

    The kernel is radial, so it is evaluated once per distinct lattice
    radius and scattered back; ``meta["nodes"]`` counts those evaluations.
    """
    radii = grid.radii().ravel()
    uniq, inv = np.unique(radii, return_inverse=True)
    ks = kernel_eval(grid.n, sigma, t, uniq)
    return KernelSamples(
        n=grid.n, gamma=ks.gamma, t=ks.t, xs=radii,
        values=ks.values[inv], est_error=ks.est_error[inv],
        converged=ks.converged[inv],
        meta=dict(ks.meta, grid=(grid.n, grid.length, grid.npts)),
    )


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
    """h(t): windowed amalgam norm of the kernel per time instant."""

    times: np.ndarray
    values: np.ndarray
    est_error: np.ndarray
    meta: dict = field(default_factory=dict)

    def as_function(self):
        """Log-log interpolant h(|t|), power-law accurate between samples."""
        lt = np.log(self.times)
        lv = np.log(self.values)

        def h(t):
            t = np.abs(np.asarray(t, dtype=float))
            return np.exp(np.interp(np.log(t), lt, lv))

        return h


def profile_times(tmin: float = 0.02, tmax: float = 50.0,
                  per_decade: int = 24) -> np.ndarray:
    """Log-spaced instants, per_decade points per decade, split at t = 1."""
    if not (0 < tmin < 1 < tmax):
        raise ValueError("need 0 < tmin < 1 < tmax")
    small = int(np.ceil(np.log10(1.0 / tmin) * per_decade)) + 1
    large = int(np.ceil(np.log10(tmax) * per_decade)) + 1
    ts = np.concatenate([np.geomspace(tmin, 1.0, small),
                         np.geomspace(1.0, tmax, large)])
    return np.unique(ts)


def kernel_amalgam_profile(n: int, sigma: float, rt, r, window: WindowSpec,
                           times, grid: GridSpec) -> DecayProfile:
    """h(t) = windowed amalgam norm of K_t with exponents (rt/2, r/2).

    The region conditions are checkable (exponents.satisfies_prop_kernel)
    but deliberately not enforced: probing outside the region is part of
    the point.  Kernel error bounds propagate into the profile.
    """
    if grid.n != n:
        raise ValueError("grid dimension must match n")
    rtf, rf = to_float(rt), to_float(r)
    if rtf < 2 or rf < 2:
        raise ValueError("rt and r must lie in [2, inf]")
    times = np.asarray(times, dtype=float)
    if np.any(times <= 0):
        raise ValueError("profile times must be positive")
    values, ests = [], []
    p_in = np.inf if np.isinf(rtf) else rtf / 2.0
    q_out = np.inf if np.isinf(rf) else rf / 2.0
    for t in times:
        ks = kernel_on_grid(grid, sigma, float(t))
        fld = SampledField(grid, ks.values.reshape(grid.shape))
        nr = amalgam_norm(fld, p_in, q_out, window)
        values.append(nr.value)
        # relative error bound over the samples above 1% of the peak
        scale = np.abs(ks.values).max()
        sig = np.abs(ks.values) >= 0.01 * scale
        ests.append(float(np.max(ks.est_error[sig] / np.abs(ks.values[sig]))))
    return DecayProfile(
        times=times,
        values=np.asarray(values),
        est_error=np.asarray(ests),
        meta={"n": n, "sigma": sigma, "rt": rtf, "r": rf,
              "window": window.kind, "window_step": window.step,
              "grid": (grid.n, grid.length, grid.npts)},
    )

"""Experiment harness tying the propagator to the quantitative claims.

Each experiment is an independent, seeded, pure job: decay-slope
regression, window-norm piecewise bounds, space-time ratio sweeps, the
fractional-integration sanity check, and the bilinear-form identities.
The harness asserts slopes, identities and refinement stability — claims
decidable at desk scale — and records constants instead of asserting
them.

The command line (cli) writes each experiment's run manifest and CSV results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import exponents as expo
from .extreal import as_extended, as_rational, fmt, recip, to_float
from .grid import (
    GridSpec,
    SampledField,
    SpaceTimeField,
    _dft,
    _euclidean,
    _lq,
    boundary_mass_fraction,
    lebesgue_norm,
    mixed_lebesgue_norm,
    transform,
    trapezoid_weights,
)
from .propagator import (
    DecayProfile,
    _hsigma_norm,
    _propagate,
    _zero_mode_fraction,
    adjoint_accumulate,
    evolve_series,
    hsigma_norm,
)
from .wiener import (
    WindowSpec,
    amalgam_norm,
    holder_pairing,
    inclusion_check,
    interpolate_exponents,
    spacetime_amalgam_norm,
    unit_cube_partition,
    weak_lorentz_norm,
)

__all__ = [
    "DecayFit",
    "WindowNormReport",
    "RatioResult",
    "RatioSweep",
    "ScalingSweep",
    "HlsReport",
    "SuiteReport",
    "fit_decay",
    "local_window_norms",
    "strichartz_ratio",
    "frequency_ratio_sweep",
    "classical_scaling_sweep",
    "hls_check_1d",
    "bilinear_form",
    "factorized_bilinear_form",
    "property_suite",
    "window_equivalence_bracket",
    "band_limited_field",
    "gaussian_datum",
    "modulated_gaussian",
    "spike_field",
    "default_ratio_times",
]


# ---------------------------------------------------------------------------
# seeded test-data generators (zero-mode-free where it matters)
# ---------------------------------------------------------------------------

def band_limited_field(grid: GridSpec, seed: int, kmin: int = 1,
                       kmax: int | None = None, label: str = "") -> SampledField:
    """Random band-limited field, zero mode removed, unit L2 norm."""
    if kmax is None:
        kmax = grid.npts // 4
    rng = np.random.default_rng(seed)
    rad = _euclidean(np.fft.fftfreq(grid.npts, d=1.0 / grid.npts), grid.n)
    band = (rad >= kmin) & (rad <= kmax)
    spec = np.zeros(grid.shape, dtype=complex)
    spec[band] = rng.standard_normal(int(band.sum())) + 1j * rng.standard_normal(int(band.sum()))
    fld = transform(SampledField(grid, spec, label), "inverse")
    nrm = lebesgue_norm(fld, 2).value
    return SampledField(grid, fld.values / nrm, label or f"band-limited[{seed}]")


def gaussian_datum(grid: GridSpec, width: float = 1.0, center=0.0,
                   label: str = "gaussian") -> SampledField:
    mesh = grid.meshgrid()
    center = np.broadcast_to(np.asarray(center, float), (grid.n,))
    r2 = sum((c - c0) ** 2 for c, c0 in zip(mesh, center))
    return SampledField(grid, np.exp(-r2 / (2.0 * width ** 2)), label)


def modulated_gaussian(grid: GridSpec, width: float = 1.0, mode: int = 8,
                       label: str = "") -> SampledField:
    """Gaussian modulated to a lattice frequency; zero-mode mass is
    exp(-(mode*dxi*width)^2)-small, so smoothing norms are safe."""
    g = gaussian_datum(grid, width=width)
    mesh = grid.meshgrid()
    xi0 = mode * grid.dxi
    phase = np.exp(1j * xi0 * sum(mesh))
    return SampledField(grid, g.values * phase, label or f"modulated[{mode}]")


def spike_field(grid: GridSpec, seed: int = 0, label: str = "") -> SampledField:
    rng = np.random.default_rng(seed)
    vals = np.zeros(grid.shape, dtype=complex)
    idx = tuple(rng.integers(0, grid.npts, size=grid.n))
    vals[idx] = 1.0
    return SampledField(grid, vals, label or f"spike[{seed}]")


def remove_zero_mode(fld: SampledField) -> SampledField:
    vals = fld.values - fld.values.mean()
    return SampledField(fld.grid, vals, fld.label)


# ---------------------------------------------------------------------------
# decay-slope regression
# ---------------------------------------------------------------------------

@dataclass
class DecayFit:
    regime: str                  # "small" (|t| <= 1) or "large" (|t| >= 1)
    slope: float
    intercept: float
    r_squared: float
    predicted: float | None = None

    @property
    def abs_error(self) -> float | None:
        if self.predicted is None:
            return None
        return abs(self.slope - self.predicted)


def _loglog_fit(ts: np.ndarray, vs: np.ndarray, regime: str,
                predicted: float | None) -> DecayFit:
    lt, lv = np.log(ts), np.log(vs)
    slope, intercept = np.polyfit(lt, lv, 1)
    resid = lv - (slope * lt + intercept)
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(regime=regime, slope=float(slope), intercept=float(intercept),
                    r_squared=r2, predicted=predicted)


def fit_decay(profile: DecayProfile, min_points: int = 12):
    """Per-regime log-log slopes of h(t), split exactly at |t| = 1.

    Equal weights on the log-spaced samples.  Predicted exponents come
    from the profile metadata when it carries (n, sigma, rt, r).
    """
    ts = np.abs(np.asarray(profile.times, dtype=float))
    vs = np.asarray(profile.values, dtype=float)
    if np.any(vs <= 0):
        raise ValueError("profile has non-positive values; nothing to fit")
    small = ts <= 1.0
    large = ts >= 1.0
    if small.sum() < min_points or large.sum() < min_points:
        raise ValueError(
            f"need >= {min_points} points per regime, got {int(small.sum())} / {int(large.sum())}")
    pred_s = pred_l = None
    m = profile.meta
    if all(k in m for k in ("n", "sigma", "rt", "r")):
        s, l, _ = expo.predicted_kernel_decay(m["n"], m["sigma"], m["rt"], m["r"])
        pred_s, pred_l = float(s), float(l)
    return (_loglog_fit(ts[small], vs[small], "small", pred_s),
            _loglog_fit(ts[large], vs[large], "large", pred_l))


# ---------------------------------------------------------------------------
# windowed time-norm sequence of h
# ---------------------------------------------------------------------------

@dataclass
class WindowNormReport:
    ks: np.ndarray
    terms: np.ndarray
    fitted_constant: float
    tail_slope: float | None
    tail_exponent: float
    weak_exponent: float
    weak_norm: float
    weak_converged: bool


def local_window_norms(h_fn, window_t: WindowSpec, ks, qt, q,
                       tail_exponent: float, t_floor: float = 1e-3,
                       pts: int = 600) -> WindowNormReport:
    """Sequence ||h * (window at k)||_{L^{qt/2}_t} and its piecewise bound.

    The window must be supported in |t| <= 1.  Returns the terms, the
    single fitted constant C such that every term is <= C * bound(k) with
    bound(k) = 1 for |k| <= 2 and (|k|-1)^tail_exponent for |k| >= 2, the
    tail regression slope over 4 <= |k| <= 64, and the weak Lorentz
    l^{q/2, inf} norm of the sequence together with a truncation
    convergence flag (half-range vs full-range comparison).
    """
    if window_t.radius > 1.0 + 1e-12:
        raise ValueError("time window must be supported in |t| <= 1")
    qt2 = to_float(qt) / 2.0
    q2 = to_float(q) / 2.0
    ks = np.asarray(sorted(ks), dtype=int)
    terms = np.empty(len(ks), dtype=float)
    R = window_t.radius
    for i, k in enumerate(ks):
        c = k * window_t.step
        lo, hi = c - R, c + R
        hv, wts = [], []
        # trapezoid rule on each side of t = 0 with log refinement near the
        # kernel-time singularity
        for a, b in ((lo, min(hi, -t_floor)), (max(lo, t_floor), hi)):
            if b <= a:
                continue
            if a > 0:
                tgrid = np.geomspace(a, b, pts) if a < b / 4 else np.linspace(a, b, pts)
            else:
                tgrid = -np.geomspace(-b, -a, pts)[::-1] if b > a / 4 else np.linspace(a, b, pts)
            hv.append(h_fn(np.abs(tgrid)) * window_t.profile(np.abs(tgrid - c)))
            wts.append(trapezoid_weights(tgrid))
        terms[i] = _lq(np.concatenate(hv), qt2, None, np.concatenate(wts))
    absk = np.abs(ks)
    bound = np.where(absk <= 2, 1.0, np.maximum(absk - 1.0, 1.0) ** tail_exponent)
    fitted_c = float(np.max(terms / bound))
    tail = (absk >= 4) & (absk <= 64)
    tail_slope = None
    if tail.sum() >= 4:
        tail_slope = float(np.polyfit(np.log(absk[tail] - 1.0), np.log(terms[tail]), 1)[0])
    weak_full = weak_lorentz_norm(terms, q2).value
    half = absk <= max(2, absk.max() // 2)
    weak_half = weak_lorentz_norm(terms[half], q2).value
    weak_conv = weak_full <= weak_half * 1.05 + 1e-12
    return WindowNormReport(
        ks=ks, terms=terms, fitted_constant=fitted_c, tail_slope=tail_slope,
        tail_exponent=float(tail_exponent), weak_exponent=q2,
        weak_norm=weak_full, weak_converged=weak_conv,
    )


# ---------------------------------------------------------------------------
# space-time ratio experiments
# ---------------------------------------------------------------------------

def default_ratio_times(t_inner: float = 0.01, t_outer: float = 32.0,
                        inner_pts: int = 40, outer_step: float = 0.125) -> np.ndarray:
    """Symmetric instants: log-spaced inside |t| <= 1, uniform outside."""
    inner = np.geomspace(t_inner, 1.0, inner_pts)
    outer = np.arange(1.0 + outer_step, t_outer + 1e-9, outer_step)
    pos = np.concatenate([inner, outer])
    return np.unique(np.concatenate([-pos[::-1], pos]))


@dataclass
class RatioResult:
    value: float
    numerator: float
    denominator: float
    meta: dict = field(default_factory=dict)


@dataclass
class RatioSweep:
    tuple_json: dict
    ratios: list
    descriptors: list

    @property
    def max(self) -> float:
        return max(self.ratios)

    @property
    def median(self) -> float:
        return float(np.median(self.ratios))

    @property
    def spread(self) -> float:
        return self.max / min(self.ratios)


def strichartz_ratio(fld: SampledField, tup: expo.ExponentTuple,
                     window_t: WindowSpec, window_x: WindowSpec,
                     times=None, weak: bool = False) -> RatioResult:
    """Space-time amalgam norm of the free evolution over the data norm."""
    rep = expo.satisfies_theorem(tup)
    if not rep.verdict:
        failed = ", ".join(c.name for c in rep.failed())
        raise ValueError(f"tuple outside the admissible region: {failed}")
    g = fld.grid
    spec = _dft(fld.values, g)
    denom = _hsigma_norm(spec, g, float(tup.sigma)).value
    if denom == 0.0:
        raise ValueError("degenerate datum: zero smoothing norm (f = 0?)")
    zfrac = _zero_mode_fraction(spec)
    if zfrac > 1e-8:
        raise ValueError(f"datum has zero-mode mass fraction {zfrac:.2e}; "
                         "use a zero-mode-free generator")
    if times is None:
        times = default_ratio_times()
    stf = SpaceTimeField(g, times, _propagate(spec, times, 0.0, g))
    num = spacetime_amalgam_norm(stf, tup.qt, tup.q, tup.rt, tup.r,
                                 window_t, window_x, weak_outer_time=weak)
    return RatioResult(
        value=num.value / denom,
        numerator=num.value,
        denominator=denom,
        meta={"ntimes": len(times), "t_span": (float(times[0]), float(times[-1])),
              "weak_outer_time": weak, "label": fld.label,
              "grid": (fld.grid.n, fld.grid.length, fld.grid.npts)},
    )


def frequency_ratio_sweep(grid: GridSpec, tup: expo.ExponentTuple,
                          window_t: WindowSpec, window_x: WindowSpec,
                          js=range(5), width: float = 1.0,
                          times=None) -> RatioSweep:
    """Ratio across the modulated family f_j = exp(i 2^j x) g(x).

    Boundedness of the ratio is the claim under test at infinite
    resolution; the harness records the spread rather than asserting a
    threshold.
    """
    ratios, desc = [], []
    for j in js:
        # nearest lattice frequency to 2^j, zero mode projected out
        mode = max(1, int(round(2.0 ** j * grid.length / np.pi)))
        f = remove_zero_mode(modulated_gaussian(grid, width=width, mode=mode))
        res = strichartz_ratio(f, tup, window_t, window_x, times=times)
        ratios.append(res.value)
        desc.append({"j": int(j), "mode": mode, "freq": mode * grid.dxi})
    return RatioSweep(tuple_json=tup.to_json_dict(), ratios=ratios, descriptors=desc)


@dataclass
class ScalingSweep:
    lambdas: list
    ratios: list
    r_used: object
    invariant_within: float

    @property
    def max_drift(self) -> float:
        base = self.ratios[0]
        return max(abs(r / base - 1.0) for r in self.ratios)

    @property
    def monotone(self) -> bool:
        diffs = np.diff(self.ratios)
        return bool(np.all(diffs > 0) or np.all(diffs < 0))


def classical_scaling_sweep(datum_fn, lambdas, n: int, sigma, q, grid: GridSpec,
                            times=None, r_override=None,
                            mass_tol: float = 1e-6) -> ScalingSweep:
    """Mixed-norm/smoothing-norm ratio under dilation of the datum.

    With r solved from the scale-invariant line the ratio is
    dilation-invariant; ``r_override`` deliberately breaks the line for
    control runs (the ratio then drifts monotonically in lambda).
    """
    r = expo.classical_sobolev_line(n, sigma, q) if r_override is None else as_extended(r_override)
    if times is None:
        times = default_ratio_times(t_outer=64.0, outer_step=0.25)
    mesh = grid.meshgrid()
    ratios = []
    for lam in lambdas:
        vals = datum_fn(*[c / lam for c in mesh])
        fld = SampledField(grid, vals, f"scaled[{lam}]")
        frac = boundary_mass_fraction(fld)
        if frac >= mass_tol:
            raise ValueError(
                f"rescaling by {lam} pushes mass to the boundary "
                f"(fraction {frac:.2e} >= {mass_tol:.0e}); enlarge the box")
        denom = hsigma_norm(fld, to_float(sigma)).value
        stf = evolve_series(fld, times, 0.0)
        num = mixed_lebesgue_norm(stf, to_float(q), to_float(r)).value
        ratios.append(num / denom)
    base = ratios[0]
    within = max(abs(rr / base - 1.0) for rr in ratios)
    return ScalingSweep(lambdas=list(lambdas), ratios=ratios, r_used=r,
                        invariant_within=within)


# ---------------------------------------------------------------------------
# 1-D fractional-integration sanity check
# ---------------------------------------------------------------------------

@dataclass
class HlsReport:
    accepted: bool
    reason: str
    q: object = None
    ratios: list = field(default_factory=list)
    max_ratio: float | None = None
    refined_max: float | None = None

    @property
    def refinement_stable(self) -> bool:
        if self.max_ratio is None or self.refined_max is None:
            return False
        hi, lo = max(self.max_ratio, self.refined_max), min(self.max_ratio, self.refined_max)
        return hi <= 1.5 * lo


def _power_kernel_cell_avg(tgrid: np.ndarray, dt: float, alpha: float) -> np.ndarray:
    """Cell averages of |t|^-alpha (exact, handles the singular cell)."""
    lo, hi = tgrid - 0.5 * dt, tgrid + 0.5 * dt

    def prim(u):
        return np.sign(u) * np.abs(u) ** (1.0 - alpha) / (1.0 - alpha)

    return (prim(hi) - prim(lo)) / dt


def power_kernel_convolution(gvals: np.ndarray, tgrid: np.ndarray,
                             alpha: float) -> np.ndarray:
    """(|t|^-alpha * g) on a uniform grid, exact cell-averaged kernel.

    A real FFT product of length L, the least power of two >= 2 nk - 1: output
    samples nk - 1 .. 2 nk - 2 pair g only with kernel lags inside its 2 nk - 1
    samples, so the circular wrap-around never reaches them.
    """
    dt = tgrid[1] - tgrid[0]
    nk = len(tgrid)
    kgrid = (np.arange(2 * nk - 1) - (nk - 1)) * dt
    kern = _power_kernel_cell_avg(kgrid, dt, alpha)
    L = 1 << (2 * nk - 2).bit_length()
    full = np.fft.irfft(np.fft.rfft(gvals, L) * np.fft.rfft(kern, L), L)
    return full[nk - 1:2 * nk - 1] * dt


def _random_bump(tgrid: np.ndarray, rng) -> np.ndarray:
    """Random smooth function supported in |t| <= 1."""
    envelope = np.where(np.abs(tgrid) < 1.0,
                        np.exp(-1.0 / np.maximum(1.0 - tgrid ** 2, 1e-300)), 0.0)
    coef = rng.standard_normal(4)
    osc = sum(c * np.cos((k + 1) * np.pi * tgrid) for k, c in enumerate(coef))
    return envelope * (1.0 + 0.5 * osc)


def hls_check_1d(p, alpha, trials: int = 200, seed: int = 0,
                 span: float = 200.0, npts: int = 2 ** 14) -> HlsReport:
    """Convolution with |t|^-alpha from L^p into L^q, ratio statistics.

    The exponent relation 1/q + 1 = 1/p + alpha with 0 < alpha < 1 and
    1 <= p < q < infinity is checked exactly; violations are reported as
    a rejection, not an exception.  For admissible exponents the ratio
    ||kernel * g||_q / ||g||_p is collected over random compactly
    supported g, at the working grid and at double resolution.
    """
    pf = as_rational(p)
    af = as_rational(alpha)
    if not (0 < af < 1):
        return HlsReport(False, f"alpha must lie in (0,1), got {fmt(af)}")
    uq = recip(pf) + af - 1
    if uq <= 0:
        return HlsReport(False, "q = inf excluded (need q < inf)")
    qf = 1 / uq
    if not (1 <= pf < qf):
        return HlsReport(False, f"need 1 <= p < q, got p={fmt(pf)}, q={fmt(qf)}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    pflt, qflt, aflt = float(pf), float(qf), float(af)

    def ratio(g, tgrid):
        """||kernel * g||_q / ||g||_p by Riemann sums on the uniform tgrid."""
        dt = tgrid[1] - tgrid[0]
        conv = power_kernel_convolution(g, tgrid, aflt)
        return float(_lq(np.abs(conv), qflt, None, dt) / _lq(np.abs(g), pflt, None, dt))

    rng = np.random.default_rng(seed)
    ratios, max_ratio = [], -np.inf
    tgrid = np.linspace(-span, span, npts)
    for _ in range(trials):
        g = _random_bump(tgrid, rng)
        ratios.append(ratio(g, tgrid))
        if ratios[-1] > max_ratio:  # keep only the first extremal g, for the refinement pass
            max_ratio, worst = ratios[-1], g
    t2 = np.linspace(-span, span, 2 * npts)
    return HlsReport(True, "admissible", q=qf, ratios=ratios, max_ratio=max_ratio,
                     refined_max=ratio(np.interp(t2, tgrid, worst), t2))


# ---------------------------------------------------------------------------
# bilinear form
# ---------------------------------------------------------------------------

def bilinear_form(F: SpaceTimeField, G: SpaceTimeField, sigma: float) -> complex:
    """Double time integral of the pairing of backward-evolved slices.

    w_F^T (E_F E_G^H) w_G dx^n: the Gram matrix pairs every two slices before
    the time sums, which factorized_bilinear_form takes first.
    """
    if F.grid != G.grid:
        raise ValueError("fields must share one grid")
    g = F.grid
    ef, eg = (_propagate(_dft(H.values, g), -H.times, sigma, g).reshape(len(H.times), -1)
              for H in (F, G))
    gram = ef @ eg.conj().T
    return complex(trapezoid_weights(F.times) @ gram @ trapezoid_weights(G.times)
                   * g.cell_volume)


def factorized_bilinear_form(F: SpaceTimeField, G: SpaceTimeField, sigma: float) -> complex:
    """Pairing of the two accumulated adjoints (same quantity, other route)."""
    if F.grid != G.grid:
        raise ValueError("fields must share one grid")
    af = adjoint_accumulate(F, sigma)
    ag = adjoint_accumulate(G, sigma)
    return complex(np.sum(af.values * np.conj(ag.values)) * F.grid.cell_volume)


# ---------------------------------------------------------------------------
# property suite
# ---------------------------------------------------------------------------

@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str = ""
    counterexample: dict | None = None


@dataclass
class SuiteReport:
    seed: int
    corpus_size: int
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def summary(self) -> str:
        lines = []
        for r in self.results:
            lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name}  {r.detail}")
        return "\n".join(lines)


def _suite_corpus(grid: GridSpec, seed: int, size: int):
    """Mixed corpus: band-limited fields, spikes, and scaled variants."""
    fields = []
    for i in range(size):
        kind = i % 4
        if kind == 3:
            fields.append(spike_field(grid, seed + i))
        else:
            fields.append(band_limited_field(grid, seed + i))
    return fields


def property_suite(seed: int = 0, corpus_size: int = 100,
                   grid: GridSpec | None = None,
                   amalgam_fn=None) -> SuiteReport:
    """One-run driver for the unit-cube lattice identities and inequalities.

    ``amalgam_fn`` may replace the amalgam-norm implementation; feeding a
    corrupted implementation must make the suite fail (that is the
    mutation hook for testing the tests).
    """
    if grid is None:
        grid = GridSpec(1, 16.0, 512)
    anorm = amalgam_fn if amalgam_fn is not None else amalgam_norm
    win = unit_cube_partition()
    fields = _suite_corpus(grid, seed, corpus_size)
    rng = np.random.default_rng(seed + 987)
    results = []

    def run(name, check):
        worst = None
        ok = True
        for i, f in enumerate(fields):
            good, detail = check(f, i)
            if not good:
                ok = False
                worst = {"index": i, "label": f.label, "detail": detail}
                break
        results.append(PropertyResult(name, ok,
                                      "" if ok else str(worst),
                                      None if ok else worst))

    def chk_diagonal(f, i):
        for p in (1.0, 2.0, 4.0, np.inf):
            a = anorm(f, p, p, win).value
            b = lebesgue_norm(f, p).value
            if not math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300):
                return False, f"p={p}: {a} vs {b}"
        return True, ""

    def chk_inclusion(f, i):
        for (p1, q1, p2, q2) in ((np.inf, 1.0, 1.0, np.inf), (4.0, 2.0, 2.0, 4.0)):
            lhs, rhs, ok = inclusion_check(f, p1, q1, p2, q2, win)
            if not ok:
                return False, f"({p1},{q1})->({p2},{q2}): {lhs} > {rhs}"
        return True, ""

    def chk_homog(f, i):
        lam = 0.5 + 2.0 * rng.random()
        scaled = SampledField(f.grid, lam * f.values)
        a = anorm(scaled, 2.0, 4.0, win).value
        b = lam * anorm(f, 2.0, 4.0, win).value
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300), f"{a} vs {b}"

    def chk_triangle(f, i):
        g = fields[(i + 1) % len(fields)]
        for (p, q) in ((2.0, 4.0), (np.inf, 2.0)):
            s = SampledField(f.grid, f.values + g.values)
            a = anorm(s, p, q, win).value
            b = anorm(f, p, q, win).value + anorm(g, p, q, win).value
            if a > b * (1 + 1e-12) + 1e-15:
                return False, f"(p,q)=({p},{q}): {a} > {b}"
        return True, ""

    def chk_weak(f, i):
        seq = np.abs(f.values.ravel())[: 256]
        for p in (1.0, 2.0, 2.5):
            wk = weak_lorentz_norm(seq, p).value
            st = float(np.sum(seq ** p) ** (1.0 / p))
            if wk > st * (1 + 1e-12):
                return False, f"p={p}: weak {wk} > strong {st}"
        return True, ""

    run("diagonal identity W(p,p) = L^p (unit cubes)", chk_diagonal)
    run("inclusion with constant 1 (unit cubes)", chk_inclusion)
    run("homogeneity of the amalgam norm", chk_homog)
    run("triangle inequality", chk_triangle)
    run("weak Lorentz <= strong", chk_weak)

    # pairing inequality on space-time pairs built from corpus slices
    def holder_ok():
        times = np.linspace(-2.0, 2.0, 9)
        for i in range(0, min(corpus_size, len(fields)) - 1, 2):
            rngi = np.random.default_rng(seed + 31 * i)
            mk = lambda base: SpaceTimeField(
                grid, times, np.multiply.outer(0.2 + rngi.random(len(times)), base.values))
            F, G = mk(fields[i]), mk(fields[i + 1])
            pairing, bound, ok = holder_pairing(F, G, 2, 4, 2, 6, win, win)
            if not ok:
                return False, f"pair {i}: {pairing} > {bound}"
        return True, ""

    ok, detail = holder_ok()
    results.append(PropertyResult("pairing inequality, constant 1", ok, detail))

    # exact rational interpolation spot identities
    def interp_ok():
        cases = [((2, 2), (np.inf, np.inf), Fraction(1, 2), (4, 4))]
        for (pq0, pq1, th, want) in cases:
            p, q = interpolate_exponents(pq0[0], pq0[1], pq1[0], pq1[1], th)
            if (to_float(p), to_float(q)) != (float(want[0]), float(want[1])):
                return False, f"{pq0},{pq1},{th} -> {p},{q}"
        return True, ""

    ok, detail = interp_ok()
    results.append(PropertyResult("interpolation arithmetic exact", ok, detail))
    return SuiteReport(seed=seed, corpus_size=corpus_size, results=results)


def window_equivalence_bracket(grid: GridSpec, p, q, seed: int = 0,
                               count: int = 200,
                               gaussian_radius: float = 0.5):
    """Empirical bracket for the gaussian/cube window norm ratio.

    The equivalent-norm claim gives no constants; this records the
    observed ratio bracket over a seeded corpus.  Returned as
    (c_lo, c_hi, ratios).
    """
    wg = WindowSpec("gaussian", radius=gaussian_radius, step=1.0, normalization="l2")
    wc = unit_cube_partition()
    ratios = []
    for i in range(count):
        f = band_limited_field(grid, seed + i)
        a = amalgam_norm(f, p, q, wg).value
        b = amalgam_norm(f, p, q, wc).value
        ratios.append(a / b)
    return min(ratios), max(ratios), ratios

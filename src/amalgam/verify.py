"""Experiment harness tying the propagator to the quantitative claims.

Each experiment is an independent, seeded, pure job: decay-slope
regression, window-norm piecewise bounds, space-time ratios, the
fractional-integration sanity check, and the bilinear-form identities.
The harness asserts slopes, identities and refinement stability — claims
decidable at desk scale — and records constants instead of asserting
them.

The command line (cli) writes each experiment's run manifest and CSV results.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from . import exponents as expo
from .exponents import as_extended, as_rational, fmt, recip, to_float
from .grid import (
    GridSpec,
    SampledField,
    SpaceTimeField,
    _blocks,
    _euclidean,
    _lq,
    trapezoid_weights,
)
from .propagator import (
    ZERO_MODE_TOL,
    DecayProfile,
    _propagate,
    _spectrum,
    adjoint_accumulate,
    evolve_blocks,
    hsigma_norm,
)
from .wiener import (
    WindowSpec,
    _amalgam_norms,
    _gaussian_scale,
    holder_pairing,
    spacetime_amalgam_norm,
    unit_cube_partition,
    weak_lorentz_norm,
)

__all__ = [
    "DecayFit",
    "WindowNormReport",
    "RatioResult",
    "HlsReport",
    "SuiteReport",
    "fit_decay",
    "local_window_norms",
    "strichartz_ratio",
    "hls_check_1d",
    "bilinear_form",
    "factorized_bilinear_form",
    "property_suite",
    "band_limited_field",
    "band_limited_stack",
    "gaussian_datum",
    "modulated_gaussian",
    "spike_field",
    "default_ratio_times",
    "ratio_instant_count",
]


# ---------------------------------------------------------------------------
# seeded test-data generators (zero-mode-free where it matters)
# ---------------------------------------------------------------------------
# Seeded data come from the standard library's Mersenne Twister, which numpy imports
# anyway; numpy's own generators would add about 6 MB of resident memory to every
# command that draws.

def _generator(seed: int) -> random.Random:
    """random.Random(seed), for seed >= 0: Random folds a negative seed onto its modulus."""
    if seed < 0:
        raise ValueError(f"a seed must be >= 0, got {seed}")
    return random.Random(seed)


def _uniform(gen: random.Random, k: int) -> np.ndarray:
    """k uniform samples in [0, 1): the top 53 bits of k 64-bit words of gen, times 2^-53."""
    return (np.frombuffer(gen.randbytes(8 * k), dtype="<u8") >> 11) * 2.0 ** -53


def _normal(gen: random.Random, k: int) -> np.ndarray:
    """k complex samples whose real and imaginary parts are independent standard normals.

    Box-Muller on one uniform pair (u, v) per sample: r (cos theta + i sin theta) with
    r = sqrt(-2 log(1 - u)) and theta = 2 pi v.  Read with .view(float), the k samples
    are 2k independent real standard normals.
    """
    u = _uniform(gen, 2 * k)
    r, theta = np.sqrt(-2.0 * np.log1p(-u[:k])), 2.0 * np.pi * u[k:]
    z = np.empty(k, dtype=complex)
    np.multiply(r, np.cos(theta), out=z.real)
    np.multiply(r, np.sin(theta), out=z.imag)
    return z


def band_limited_field(grid: GridSpec, seed: int, kmax: int | None = None) -> SampledField:
    """Random band-limited field, zero mode removed, unit L2 norm."""
    values = band_limited_stack(grid, [seed], kmax)[0]
    return SampledField(grid, values)


def band_limited_stack(grid: GridSpec, seeds, kmax: int | None = None) -> np.ndarray:
    """One (len(seeds), *shape) array whose row k is band_limited_field(grid, seeds[k]).

    Each seed draws from its own generator, random.Random(seed), one complex normal
    (_normal) per lattice mode 1 <= |k| <= kmax (default N/4), in the order of
    the flattened lattice; the rows share one batched inverse transform and one
    normalization.
    """
    if kmax is None:
        kmax = grid.npts // 4
    rad = _euclidean(*(np.fft.fftfreq(grid.npts, d=1.0 / grid.npts),) * grid.n)
    band = (rad >= 1) & (rad <= kmax)
    count = int(band.sum())
    spec = np.zeros((len(seeds),) + grid.shape, dtype=complex)
    for row, seed in zip(spec, seeds):
        row[band] = _normal(_generator(seed), count)
    axes = tuple(range(1, grid.n + 1))
    values = np.fft.ifftn(spec, axes=axes, out=spec)
    values /= np.expand_dims(_lq(np.abs(values), 2, axes, grid.cell_volume), axes)
    return values


def gaussian_datum(grid: GridSpec, width: float = 1.0) -> SampledField:
    """exp(-|x|^2 / (2 width^2)) on open grids, in one float64 array allocated before any work."""
    *head, last = np.ix_(*(grid.axis_points(),) * grid.n)
    r2 = np.empty(grid.shape)
    np.add(sum(c ** 2 for c in head), last ** 2, out=r2)
    r2 /= -_gaussian_scale(width, "width")
    return SampledField(grid, np.exp(r2, out=r2))


def modulated_gaussian(grid: GridSpec, width: float = 1.0, mode: int = 8) -> SampledField:
    """Gaussian modulated to a lattice frequency, on open grids in one complex array;
    zero-mode mass is exp(-(mode*dxi*width)^2)-small, so smoothing norms are safe."""
    axes = np.ix_(*(grid.axis_points(),) * grid.n)
    vals = np.empty(grid.shape, dtype=complex)
    vals.real = sum(c ** 2 for c in axes)
    vals.real /= -_gaussian_scale(width, "width")
    vals.imag = sum(axes)
    vals.imag *= mode * grid.dxi
    return SampledField(grid, np.exp(vals, out=vals))


def spike_field(grid: GridSpec, seed: int = 0) -> SampledField:
    """One unit sample at a lattice point drawn with random.Random(seed).randrange per axis."""
    gen = _generator(seed)
    vals = np.zeros(grid.shape)
    idx = tuple(gen.randrange(grid.npts) for _ in range(grid.n))
    vals[idx] = 1.0
    return SampledField(grid, vals)


# ---------------------------------------------------------------------------
# decay-slope regression
# ---------------------------------------------------------------------------

@dataclass
class DecayFit:
    """A regime's log-log slope against the exponent the theory predicts for it."""

    regime: str                  # "small" (|t| <= 1) or "large" (|t| >= 1)
    slope: float
    r_squared: float
    predicted: float

    @property
    def abs_error(self) -> float:
        return abs(self.slope - self.predicted)


def _loglog_fit(ts: np.ndarray, vs: np.ndarray, regime: str, predicted) -> DecayFit:
    """Slope of log v on log t, sum(dt dv) / sum(dt^2) over the centered logs, and its r^2."""
    dt, dv = (a - a.mean() for a in (np.log(ts), np.log(vs)))
    # sums, not dot products: fit-decay calls BLAS nowhere else, and a first call costs 0.15 MB
    slope = float((dt * dv).sum() / (dt * dt).sum())
    resid, ss_tot = dv - slope * dt, float((dv * dv).sum())
    r2 = 1.0 - float((resid * resid).sum()) / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(regime=regime, slope=slope, r_squared=r2, predicted=float(predicted))


def fit_decay(profile: DecayProfile, predicted) -> tuple:
    """Per-regime log-log slopes of h(t), split exactly at |t| = 1, as (small, large) fits.

    Equal weights on the log-spaced samples, at least 12 per regime.  predicted is
    the exact (small, large) exponent pair of exponents.predicted_kernel_decay.
    """
    ts = np.abs(np.asarray(profile.times, dtype=float))
    vs = np.asarray(profile.values, dtype=float)
    if np.any(vs <= 0):
        raise ValueError("profile has non-positive values; nothing to fit")
    small = ts <= 1.0
    large = ts >= 1.0
    if small.sum() < 12 or large.sum() < 12:
        raise ValueError(
            f"need >= 12 points per regime, got {int(small.sum())} / {int(large.sum())}")
    return (_loglog_fit(ts[small], vs[small], "small", predicted[0]),
            _loglog_fit(ts[large], vs[large], "large", predicted[1]))


# ---------------------------------------------------------------------------
# windowed time-norm sequence of h
# ---------------------------------------------------------------------------

@dataclass
class WindowNormReport:
    ks: np.ndarray
    terms: np.ndarray
    fitted_constant: float
    tail_slope: float | None
    weak_norm: float
    weak_converged: bool


def local_window_norms(h_fn, ks, qt, q, tail_exponent: float) -> WindowNormReport:
    """Sequence ||h * (window at k)||_{L^{qt/2}_t} and its piecewise bound.

    The window is the smooth bump of radius 1, centred at the integer k.
    Returns the terms, the single fitted constant C such that every term is
    <= C * bound(k) with bound(k) = 1 for |k| <= 2 and (|k|-1)^tail_exponent
    for |k| >= 2, the tail regression slope over 4 <= |k| <= 64, and the weak
    Lorentz l^{q/2, inf} norm of the sequence together with a truncation
    convergence flag (half-range vs full-range comparison).
    """
    bump = WindowSpec("smooth-bump", radius=1.0, step=1.0)
    qt2 = float(qt) / 2.0
    q2 = float(q) / 2.0
    ks = np.asarray(sorted(ks), dtype=int)
    terms = np.empty(len(ks), dtype=float)
    for i, k in enumerate(ks):
        lo, hi = k - 1.0, k + 1.0
        hv, wts = [], []
        # 600-point trapezoid rule on each side of t = 0, outside |t| < 1e-3,
        # with log refinement near the kernel-time singularity
        for a, b in ((lo, min(hi, -1e-3)), (max(lo, 1e-3), hi)):
            if b <= a:
                continue
            if a > 0:
                tgrid = np.geomspace(a, b, 600) if a < b / 4 else np.linspace(a, b, 600)
            else:
                tgrid = -np.geomspace(-b, -a, 600)[::-1] if b > a / 4 else np.linspace(a, b, 600)
            hv.append(h_fn(np.abs(tgrid)) * bump.profile(np.abs(tgrid - k)))
            wts.append(trapezoid_weights(tgrid))
        terms[i] = _lq(np.concatenate(hv), qt2, None, np.concatenate(wts))
    absk = np.abs(ks)
    bound = np.where(absk <= 2, 1.0, np.maximum(absk - 1.0, 1.0) ** tail_exponent)
    fitted_c = float(np.max(terms / bound))
    tail = (absk >= 4) & (absk <= 64)
    tail_slope = None
    if tail.sum() >= 4:
        tail_slope = _loglog_fit(absk[tail] - 1.0, terms[tail], "tail", tail_exponent).slope
    weak_full = float(weak_lorentz_norm(terms, q2))
    half = absk <= max(2, absk.max() // 2)
    weak_half = float(weak_lorentz_norm(terms[half], q2))
    weak_conv = weak_full <= weak_half * 1.05 + 1e-12
    return WindowNormReport(
        ks=ks, terms=terms, fitted_constant=fitted_c, tail_slope=tail_slope,
        weak_norm=weak_full, weak_converged=weak_conv,
    )


# ---------------------------------------------------------------------------
# space-time ratio experiments
# ---------------------------------------------------------------------------

def ratio_instant_count(t_outer: float = 32.0, outer_step: float = 0.125) -> int:
    """len(default_ratio_times(t_outer, outer_step)), exactly and without building them."""
    if not 1.0 <= t_outer < math.inf:
        raise ValueError(f"the outer time t_outer must be finite and >= 1, got {t_outer}")
    return 2 * (40 + math.floor((Fraction(t_outer) - 1) / Fraction(outer_step)))


def default_ratio_times(t_outer: float = 32.0, outer_step: float = 0.125) -> np.ndarray:
    """Symmetric instants, increasing: 40 log-spaced in 0.01 <= |t| <= 1, then 1 + k outer_step
    for k = 1..m, m = floor((t_outer - 1) / outer_step) in exact arithmetic, mirrored."""
    m = ratio_instant_count(t_outer, outer_step) // 2 - 40
    inner = np.geomspace(0.01, 1.0, 40)
    outer = 1.0 + outer_step * np.arange(1, m + 1)
    pos = np.concatenate([inner, outer])
    return np.concatenate([-pos[::-1], pos])


@dataclass
class RatioResult:
    value: float
    numerator: float
    denominator: float


def strichartz_ratio(fld: SampledField, tup: expo.ExponentTuple,
                     times=None) -> RatioResult:
    """Space-time amalgam norm (unit cubes) of the free evolution over the data norm; the
    tuple's dimension must be the field's.  At qt = q and rt = r the numerator is the
    classical mixed norm L^q_t L^r_x.  The tuple need not lie in the theorem's region
    (the ratio command checks that); a datum whose zero-mode share reaches ZERO_MODE_TOL,
    which the data norm cannot see, is a ValueError."""
    if tup.n != fld.grid.n:
        raise ValueError(f"the tuple's dimension n = {tup.n} is not the field's, {fld.grid.n}")
    data = hsigma_norm(fld, float(tup.sigma))  # sigma > 0: it warns of the zero mode
    denom, zfrac = data.value, data.meta["zero_mode_fraction"]
    if denom == 0.0:
        raise ValueError("degenerate datum: zero smoothing norm (f = 0?)")
    if zfrac >= ZERO_MODE_TOL:
        raise ValueError(f"datum has zero-mode mass fraction {zfrac:.2e}; "
                         "use a zero-mode-free generator")
    times = default_ratio_times() if times is None else times
    exps = (to_float(e) for e in (tup.qt, tup.q, tup.rt, tup.r))
    # one block of instants at a time is evolved, then reduced to its spatial norms
    blocks = (block for _, block in evolve_blocks(fld, times))
    num = spacetime_amalgam_norm(blocks, fld.grid, times, *exps)
    return RatioResult(value=num / denom, numerator=num, denominator=denom)


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


def _power_kernel_cells(nk: int, dt: float, alpha: float) -> np.ndarray:
    """The exact averages of |t|^-alpha over the cells [(l - 1/2) dt, (l + 1/2) dt] of
    the 2 nk - 1 lags l = 1 - nk .. nk - 1, singular cell included: differences of the
    odd primitive sign(u) |u|^(1 - alpha) / (1 - alpha) at the cell edges, evaluated on
    the nk edges (l + 1/2) dt >= 0 and mirrored."""
    prim = (np.arange(nk) * dt + 0.5 * dt) ** (1.0 - alpha) / (1.0 - alpha)
    half = np.diff(prim, prepend=-prim[0]) / dt
    return np.concatenate((half[:0:-1], half))


def _convolve(g: np.ndarray, cells: np.ndarray, dt: float, lo: int = 0) -> np.ndarray:
    """(|t|^-alpha * g) at the nk samples of a uniform grid of step dt, with the cells of
    _power_kernel_cells, as a direct sum over g's support: g holds samples lo .. hi - 1,
    and the function is zero at the others.  A zero g gives zeros."""
    nk, hi = (len(cells) + 1) // 2, lo + len(g)
    return np.convolve(cells[nk - hi:2 * nk - 1 - lo], g, "valid") * dt


def hls_check_1d(p, alpha, trials: int = 200, seed: int = 0) -> HlsReport:
    """Convolution with |t|^-alpha from L^p into L^q, ratio statistics.

    The exponent relation 1/q + 1 = 1/p + alpha with 0 < alpha < 1 and
    1 <= p < q < infinity is checked exactly; violations are reported as
    a rejection, not an exception.  For admissible exponents the ratio
    ||kernel * g||_q / ||g||_p is collected over random smooth g supported
    in |t| <= 1 on 2^14 uniform points of [-200, 200], and at double
    resolution for the first g of largest ratio.  The bumps and their
    L^p norms live on the samples with |t| < 1 only; each grid builds its
    kernel cells once, and each convolution is a direct sum over the bump.
    """
    pf = as_extended(p)  # p = inf is an exponent, rejected below as q = inf
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

    def ratio(g, lo, dt, cells):
        """||kernel * g||_q / ||g||_p by Riemann sums on a uniform grid, g from sample lo."""
        conv = _convolve(g, cells, dt, lo)
        return float(_lq(np.abs(conv), qflt, None, dt) / _lq(np.abs(g), pflt, None, dt))

    tgrid = np.linspace(-200.0, 200.0, 2 ** 14)
    dt = tgrid[1] - tgrid[0]
    cells = _power_kernel_cells(len(tgrid), dt, aflt)
    inside = np.flatnonzero(np.abs(tgrid) < 1.0)
    lo, hi = inside[0], inside[-1] + 1
    t = tgrid[lo:hi]
    # bump g = envelope * (1 + osc / 2), osc a random combination of cos(k pi t), k = 1..4
    envelope = np.exp(-1.0 / (1.0 - t ** 2))
    cosines = [np.cos(k * np.pi * t) for k in range(1, 5)]
    gen = _generator(seed)
    ratios, max_ratio = [], -np.inf
    for _ in range(trials):
        osc = sum(c * cos for c, cos in zip(_normal(gen, 2).view(float), cosines))
        g = envelope * (1.0 + 0.5 * osc)
        ratios.append(ratio(g, lo, dt, cells))
        if ratios[-1] > max_ratio:  # keep only the first extremal g, for the refinement pass
            max_ratio, worst = ratios[-1], g
    # the refined bump is nonzero strictly between the zero samples lo - 1 and hi
    t2 = np.linspace(-200.0, 200.0, 2 ** 15)
    lo2, hi2 = np.searchsorted(t2, tgrid[lo - 1], "right"), np.searchsorted(t2, tgrid[hi])
    g2 = np.interp(t2[lo2:hi2], tgrid[lo - 1:hi + 1], np.pad(worst, 1))
    dt2 = t2[1] - t2[0]
    return HlsReport(True, "admissible", q=qf, ratios=ratios, max_ratio=max_ratio,
                     refined_max=ratio(g2, lo2, dt2, _power_kernel_cells(len(t2), dt2, aflt)))


# ---------------------------------------------------------------------------
# bilinear form
# ---------------------------------------------------------------------------

def bilinear_form(F: SpaceTimeField, G: SpaceTimeField, sigma: float) -> complex:
    """Double time integral of the pairing of backward-evolved slices.

    w_F^T (E_F E_G^H) w_G dx^n: the Gram matrix pairs every two slices before
    the time sums, which factorized_bilinear_form takes first.  G is evolved and
    conjugated in place, once; the Gram is formed one _blocks block of F's instants
    at a time, and each block is freed before the next is built.
    """
    if F.grid != G.grid:
        raise ValueError("fields must share one grid")
    g = F.grid
    eg = _spectrum(G.values, sigma, g)
    eg = np.conjugate(_propagate(eg, -G.times, g, eg), out=eg).reshape(len(G.times), -1)
    wf, wg = trapezoid_weights(F.times), trapezoid_weights(G.times)
    total = 0.0
    for b in _blocks(len(F.times), g.size):
        ef = _spectrum(F.values[b], sigma, g)
        total += wf[b] @ (_propagate(ef, -F.times[b], g, ef).reshape(len(ef), -1) @ eg.T) @ wg
        del ef
    return complex(total * g.cell_volume)


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
    counterexample: dict | None = None


@dataclass
class SuiteReport:
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def summary(self) -> str:
        return "\n".join(f"{'PASS' if r.passed else 'FAIL'}  {r.name}  {r.counterexample or ''}"
                         for r in self.results)


def _suite_corpus(grid: GridSpec, seed: int, size: int):
    """Mixed corpus as one (size, *shape) stack and its labels: field i is
    spike_field(grid, seed + i) at every fourth index, else
    band_limited_field(grid, seed + i).  One band_limited_stack call draws every
    row, and the spikes overwrite theirs."""
    stack = band_limited_stack(grid, range(seed, seed + size))
    for i in range(3, size, 4):
        stack[i] = spike_field(grid, seed + i).values
    labels = [f"{'spike' if i % 4 == 3 else 'band-limited'}[{seed + i}]" for i in range(size)]
    return stack, labels


# math.isclose elementwise, so the tolerances mean what they meant per field
_isclose = np.vectorize(partial(math.isclose, rel_tol=1e-12, abs_tol=1e-300), otypes=[bool])


def property_suite(seed: int = 0, corpus_size: int = 100) -> SuiteReport:
    """One-run driver for the unit-cube lattice identities and inequalities,
    over a corpus of corpus_size >= 2 fields on GridSpec(1, 16, 512).

    The corpus is one (corpus_size, 512) stack, and each property compares
    whole vectors of norms; a failing property reports its first failing
    field and that field's first failing check.  Interpolation is checked as
    the log-convexity of each field's norm along lines in (1/p, 1/q), which
    mixed l^q(L^p) norms satisfy exactly.
    """
    if corpus_size < 2:
        raise ValueError(f"corpus size must be >= 2 (the pairing check needs a pair), "
                         f"got {corpus_size}")
    grid = GridSpec(1, 16.0, 512)
    win = unit_cube_partition()

    def anorm(values, p, q):
        return _amalgam_norms(values, p, q, win, grid)[0]

    stack, labels = _suite_corpus(grid, seed, corpus_size)
    gen = _generator(seed + 987)
    results = []

    def run(name, checks):
        """checks: (holds per field, detail of field i) pairs, in the order tried."""
        bad = np.flatnonzero(~np.all([holds for holds, _ in checks], axis=0))
        if bad.size == 0:
            results.append(PropertyResult(name, True))
            return
        i = int(bad[0])
        detail = next(describe(i) for holds, describe in checks if not holds[i])
        results.append(PropertyResult(name, False, {"index": i, "label": labels[i],
                                                    "detail": detail}))

    def diagonal(p):
        a = anorm(stack, p, p)
        b = _lq(np.abs(stack), p, -1, grid.cell_volume)
        return _isclose(a, b), lambda i: f"p={p}: {a[i]} vs {b[i]}"

    def inclusion(p1, q1, p2, q2):
        # W(L^p1, L^q1) into W(L^p2, L^q2), for p1 >= p2 and q1 <= q2
        lhs, rhs = anorm(stack, p2, q2), anorm(stack, p1, q1)
        holds = lhs <= rhs * (1.0 + 1e-10) + 1e-12
        return holds, lambda i: f"({p1},{q1})->({p2},{q2}): {lhs[i]} > {rhs[i]}"

    def homogeneity():
        lam = 0.5 + 2.0 * _uniform(gen, corpus_size)
        a = anorm(lam[:, None] * stack, 2.0, 4.0)
        b = lam * anorm(stack, 2.0, 4.0)
        return _isclose(a, b), lambda i: f"{a[i]} vs {b[i]}"

    def triangle(p, q):
        # field i pairs with field i + 1, the last with the first
        pair = np.roll(stack, -1, axis=0)
        pair += stack
        a = anorm(pair, p, q)
        single = anorm(stack, p, q)
        b = single + np.roll(single, -1)
        return ~(a > b * (1 + 1e-12) + 1e-15), lambda i: f"(p,q)=({p},{q}): {a[i]} > {b[i]}"

    def weak(p):
        seq = np.abs(stack[:, :256])
        wk = weak_lorentz_norm(seq, p)
        st = _lq(seq, p, -1)
        return ~(wk > st * (1 + 1e-12)), lambda i: f"p={p}: weak {wk[i]} > strong {st[i]}"

    run("diagonal identity W(p,p) = L^p (unit cubes)",
        [diagonal(p) for p in (1.0, 2.0, 4.0, np.inf)])
    run("inclusion with constant 1 (unit cubes)",
        [inclusion(*e) for e in ((np.inf, 1.0, 1.0, np.inf), (4.0, 2.0, 2.0, 4.0))])
    run("homogeneity of the amalgam norm", [homogeneity()])
    run("triangle inequality", [triangle(2.0, 4.0), triangle(np.inf, 2.0)])
    run("weak Lorentz <= strong", [weak(p) for p in (1.0, 2.0, 2.5)])

    def pairing():
        # space-time fields built from field i and from field i + 1, for even i
        times = np.linspace(-2.0, 2.0, 9)
        value, bound = np.zeros(corpus_size), np.zeros(corpus_size)
        holds = np.ones(corpus_size, dtype=bool)
        for i in range(0, corpus_size - 1, 2):
            gen_i = _generator(seed + 31 * i)
            mk = lambda base: SpaceTimeField(
                grid, times, np.multiply.outer(0.2 + _uniform(gen_i, len(times)), base))
            F, G = mk(stack[i]), mk(stack[i + 1])
            value[i], bound[i], holds[i] = holder_pairing(F, G, 2, 4, 2, 6)
        return holds, lambda i: f"pair {i}: {value[i]} > {bound[i]}"

    run("pairing inequality, constant 1", [pairing()])

    # log-convexity along lines in (1/p, 1/q): two fixed, six seeded, of which two start
    # at a corner of the unit square, each at a seeded theta in [0.05, 0.95]
    def log_convex(u0, u1, theta):
        ut = (1 - theta) * u0 + theta * u1
        pq = [tuple(1 / float(x) if x else math.inf for x in u) for u in (u0, u1, ut)]
        l0, l1, lt = (np.log(anorm(stack, *e)) for e in pq)
        bound = (1 - theta) * l0 + theta * l1 + 1e-12
        return lt <= bound, lambda i: (f"(p,q) {pq[0]} to {pq[1]} at theta={theta:.3f}: "
                                       f"log {lt[i]} > {bound[i]}")

    ends = _uniform(gen, 24).reshape(6, 2, 2)
    ends[:2, 0] = np.round(ends[:2, 0])
    lines = [(np.array([0.0, 1.0]), np.array([1.0, 0.0])), (np.zeros(2), np.ones(2)), *ends]
    thetas = 0.05 + 0.9 * _uniform(gen, len(lines))
    run("log-convexity in (1/p, 1/q) (interpolation)",
        [log_convex(u0, u1, th) for (u0, u1), th in zip(lines, thetas)])
    return SuiteReport(results=results)

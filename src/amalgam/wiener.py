"""Wiener amalgam norms on the lattice.

The amalgam norm of exponents (p, q) localizes f by a window translated
along a sub-lattice of step a, takes the inner L^p norm of each localized
piece, and then the outer norm

    ( a^n * sum_k ||f tau_k phi||_p^q )^(1/q)        (max over k for q = inf).

The a^(n/q) weight makes the outer sum a Riemann sum of the continuum
outer integral.

Two window regimes are supported on purpose:

* smooth windows (gaussian / smooth-bump) with unit L2 normalization, for
  decay measurements where only equivalence constants matter;
* exact cube partitions (side == step), where the window translates tile
  the lattice and identities such as W(L^p, L^p) = L^p or the Holder
  pairing hold with constant exactly 1 (for unit cubes).

Everything here is pure; smooth-window sums visit window blocks in a fixed order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .extreal import conjugate, from_recip, recip, to_float
from .grid import (
    GridSpec,
    NormResult,
    SampledField,
    SpaceTimeField,
    _euclidean,
    _lq,
    trapezoid_weights,
)

__all__ = [
    "WindowSpec",
    "NormResult",
    "unit_cube_partition",
    "amalgam_norm",
    "weak_lorentz_norm",
    "spacetime_amalgam_norm",
    "holder_pairing",
    "interpolate_exponents",
    "inclusion_check",
]

_KINDS = ("gaussian", "smooth-bump", "cube-indicator")
# samples per batch of slices in spacetime_amalgam_norm (4 MiB of complex values)
_BATCH_SAMPLES = 1 << 18


@dataclass(frozen=True)
class WindowSpec:
    """Test window and its translation lattice.

    radius: support radius (cube half-side; bump support radius; gaussian
    scale).  step: translation lattice spacing a > 0.  normalization:
    'l2' renormalizes the discretized window to unit L2 mass; 'partition'
    keeps a raw cube indicator and requires side == step so the translates
    tile space exactly.
    """

    kind: str
    radius: float
    step: float
    normalization: str = "l2"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown window kind {self.kind!r}")
        if self.radius <= 0 or self.step <= 0:
            raise ValueError("radius and step must be positive")
        if self.normalization not in ("l2", "partition"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.normalization == "partition":
            if self.kind != "cube-indicator":
                raise ValueError("partition normalization requires a cube-indicator window")
            if not math.isclose(2.0 * self.radius, self.step, rel_tol=1e-12):
                raise ValueError("partition requires cube side == translation step")

    @property
    def is_partition(self) -> bool:
        return self.normalization == "partition"

    def profile(self, dist: np.ndarray) -> np.ndarray:
        """Window amplitude as a function of (componentwise max-) distance.

        For the cube indicator the argument is the max-norm offset; for the
        radial kinds it is the euclidean distance.
        """
        dist = np.asarray(dist, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-(dist ** 2) / (2.0 * self.radius ** 2))
        if self.kind == "smooth-bump":
            out = np.zeros_like(dist)
            inside = dist < self.radius
            u = dist[inside] / self.radius
            out[inside] = np.exp(-1.0 / (1.0 - u ** 2)) * np.e
            return out
        return (dist < self.radius).astype(float)


def unit_cube_partition() -> WindowSpec:
    """Side-1 cube indicator on the integer lattice (exact tiling)."""
    return WindowSpec(kind="cube-indicator", radius=0.5, step=1.0,
                      normalization="partition")


def _translate_shape(win: WindowSpec, grid: GridSpec) -> tuple[int, int]:
    """(samples per step s, translates per axis K); validates divisibility."""
    s = win.step / grid.dx
    if abs(s - round(s)) > 1e-9 or round(s) < 1:
        raise ValueError(
            f"window step {win.step} is not a multiple of the lattice step {grid.dx}")
    s = int(round(s))
    K = 2.0 * grid.length / win.step
    if abs(K - round(K)) > 1e-9:
        raise ValueError(
            f"window step {win.step} does not divide the torus side {2 * grid.length}")
    return s, int(round(K))


def materialize_window(win: WindowSpec, grid: GridSpec) -> np.ndarray:
    """Window centered at x = 0 on the grid, with periodic displacement."""
    if 2.0 * win.radius > 2.0 * grid.length + 1e-12:
        raise ValueError(
            "window support exceeds the torus; translates would self-overlap")
    # periodic displacement from 0 along one axis, broadcast over the others
    disp = ((grid.axis_points() + grid.length) % (2.0 * grid.length)) - grid.length
    if win.kind == "cube-indicator":
        dist = functools.reduce(np.maximum, np.ix_(*(np.abs(disp),) * grid.n))
    else:
        dist = _euclidean(disp, grid.n)
    phi = win.profile(dist)
    if win.normalization == "l2":
        mass = _lq(np.abs(phi), 2, None, grid.cell_volume)
        if mass == 0:
            raise ValueError("window vanishes on this grid; radius below lattice step")
        phi = phi / mass
    return phi


def _block_view(values: np.ndarray, n: int, K: int, s: int) -> np.ndarray:
    """View (..., N,)*n as (..., K,)*n + (s,)*n: block index, then offset in the block."""
    m = values.ndim - n
    order = (*range(m), *range(m, m + 2 * n, 2), *range(m + 1, m + 2 * n, 2))
    return values.reshape(values.shape[:m] + (K, s) * n).transpose(order)


def _amalgam_norms(values: np.ndarray, p: float, q: float, window: WindowSpec,
                   g: GridSpec) -> tuple:
    """W(L^p, L^q) norms over the trailing grid axes of a (..., *g.shape) array,
    and the window blocks visited (None for a partition)."""
    if p < 1 or q < 1:
        raise ValueError("exponents must lie in [1, inf]")
    s, K = _translate_shape(window, g)
    n, inf = g.n, np.isinf(p)
    lead = values.shape[:-n]
    axes = tuple(range(-n, 0))
    a = np.abs(values)
    nblocks = None
    if window.is_partition:
        # cubes centered at the translate lattice k*a: [k*a - a/2, k*a + a/2);
        # rolling by s//2 aligns block boundaries with the cube edges
        rolled = np.roll(a, (s // 2,) * n, axis=axes)
        # offsets first and cubes last, so each per-cube sum runs along whole rows
        blocks = np.moveaxis(_block_view(rolled, n, K, s), axes, range(-2 * n, -n))
        local = _lq(blocks.reshape(lead + (s ** n, K ** n)), p, -2, g.cell_volume)
    else:
        # with x = (k + j) a + r (block k + j, offset r), sum_x |f|^p |phi(x - k a)|^p
        # is sum_j sum_r F[k + j, r] Phi[j, r] exactly (F, Phi: block views of |f|^p,
        # |phi|^p; max for p = inf), and only blocks j where phi is non-zero count.
        # A correlation, not a reduction: |f| is divided by its peak per slice by
        # hand, so |f|^p cannot overflow, and the peak multiplies the root back
        phi = materialize_window(window, g)
        peak = a.max(axis=axes, keepdims=True)
        peak[peak == 0] = 1.0
        a /= peak
        F = _block_view(a if inf else a ** p, n, K, s).reshape(lead + (K ** n, s ** n))
        Phi = _block_view(phi if inf else phi ** p, n, K, s)
        blocks = np.argwhere(Phi.any(axis=tuple(range(n, 2 * n))))
        local = np.zeros(lead + (K,) * n)
        for j in blocks:
            w = Phi[tuple(j)].ravel()
            part = (F * w).max(axis=-1) if inf else F @ w
            part = np.roll(part.reshape(local.shape), tuple(-j), axis=axes)
            local = np.maximum(local, part) if inf else local + part
        local = local.reshape(lead + (K ** n,))
        if not inf:
            local = (local * g.cell_volume) ** (1.0 / p)
        local *= peak.reshape(lead + (1,))
        nblocks = len(blocks)
    return _lq(local, q, -1, window.step ** n), nblocks


def amalgam_norm(fld: SampledField, p: float, q: float, window: WindowSpec) -> NormResult:
    """W(L^p, L^q) norm of a field with the given window."""
    p, q = to_float(p), to_float(q)
    g = fld.grid
    value, nblocks = _amalgam_norms(fld.values, p, q, window, g)
    meta = {"n": g.n, "L": g.length, "N": g.npts, "window": window.kind,
            "step": window.step, "radius": window.radius,
            "normalization": window.normalization}
    if nblocks is not None:
        meta["window_blocks"] = nblocks
    return NormResult(
        value=float(value),
        space="wiener-amalgam",
        exponents={"p": p, "q": q},
        meta=meta,
        est_error=0.0 if window.is_partition else None,
    )


def weak_lorentz_norm(sequence, p: float) -> NormResult:
    """Discrete weak L^{p,inf} norm: sup_m m^(1/p) a*_m, a* nonincreasing."""
    p = to_float(p)
    if not (0 < p < math.inf):
        raise ValueError(f"weak Lorentz exponent must be in (0, inf), got {p}")
    a = np.abs(np.asarray(sequence, dtype=float).ravel())
    if a.size == 0:
        value = 0.0
    else:
        srt = np.sort(a)[::-1]
        m = np.arange(1, srt.size + 1, dtype=float)
        value = float(np.max(m ** (1.0 / p) * srt))
    return NormResult(value=value, space="weak-lorentz", exponents={"p": p},
                      meta={"length": int(a.size)})


def _time_translates(times: np.ndarray, window: WindowSpec) -> np.ndarray:
    """Translate indices k (centers k*step) for the sampled span."""
    a = window.step
    if window.is_partition:
        return np.unique(np.floor(times / a + 0.5).astype(int))
    lo = math.ceil((times[0] + window.radius) / a - 1e-12)
    hi = math.floor((times[-1] - window.radius) / a + 1e-12)
    return np.arange(lo, hi + 1)


def spacetime_amalgam_norm(
    stf: SpaceTimeField,
    qt, q, rt, r,
    window_t: WindowSpec,
    window_x: WindowSpec,
    weak_outer_time: bool = False,
) -> NormResult:
    """W(L^qt, L^q)_t W(L^rt, L^r)_x norm of a space-time field.

    Per slice the spatial amalgam norm is taken, giving a scalar function
    of t; that function then gets the temporal amalgam treatment.  With
    ``weak_outer_time`` the outer norm over time translates is replaced by
    the weak Lorentz norm of exponent q.
    """
    qtf, qf, rtf, rf = (to_float(e) for e in (qt, q, rt, r))
    g = stf.grid
    # batches of whole slices, so the temporaries stay a few MB at any slice count
    batch = max(1, _BATCH_SAMPLES // g.size)
    spatial = np.concatenate([_amalgam_norms(stf.values[i:i + batch], rtf, rf, window_x, g)[0]
                              for i in range(0, len(stf.times), batch)])
    times = stf.times
    ks = _time_translates(times, window_t)
    if len(ks) == 0:
        raise ValueError("no time-window translate fits inside the sampled span")
    # one row per translate k: the window at center c_k on the instants
    c = window_t.step * ks[:, None]
    if window_t.is_partition:
        phi = (times >= c - 0.5 * window_t.step) & (times < c + 0.5 * window_t.step)
    else:
        phi = window_t.profile(np.abs(times - c))
    local = _lq(spatial * phi, qtf, -1, trapezoid_weights(times))
    if weak_outer_time:
        base = weak_lorentz_norm(local, qf).value if not np.isinf(qf) else float(local.max())
        value = base * window_t.step ** (0.0 if np.isinf(qf) else 1.0 / qf)
        space = "spacetime-amalgam-weak"
    else:
        value = float(_lq(local, qf, -1, window_t.step))
        space = "spacetime-amalgam"
    return NormResult(
        value=value,
        space=space,
        exponents={"qt": qtf, "q": qf, "rt": rtf, "r": rf},
        meta={"n": stf.grid.n, "ntimes": len(times),
              "time_window": window_t.kind, "space_window": window_x.kind,
              "translates": len(ks)},
    )


def spacetime_inner_product(F: SpaceTimeField, G: SpaceTimeField) -> complex:
    """<F, G> over space-time with trapezoid weights in time."""
    if F.grid != G.grid or len(F.times) != len(G.times) or not np.allclose(F.times, G.times):
        raise ValueError("fields must share grid and time instants")
    T = len(F.times)
    per_slice = np.vecdot(G.values.reshape(T, -1), F.values.reshape(T, -1))
    return complex(trapezoid_weights(F.times) @ per_slice * F.grid.cell_volume)


def holder_pairing(
    F: SpaceTimeField,
    G: SpaceTimeField,
    qt, q, rt, r,
    window_t: WindowSpec,
    window_x: WindowSpec,
):
    """|<F, G>| against the product of dual amalgam norms.

    Requires exact cube partitions (side 1) so the inequality constant is
    exactly 1; with other windows the constant would depend on the window
    and nothing sharp could be asserted.
    """
    for win, side in ((window_t, "time"), (window_x, "space")):
        if not win.is_partition:
            raise ValueError(f"holder_pairing requires a partition window in {side}")
        if not math.isclose(win.step, 1.0, rel_tol=1e-12):
            raise ValueError("holder_pairing requires unit cubes (constant-1 inequality)")
    qtc, qc, rtc, rc = (conjugate(e) for e in (qt, q, rt, r))
    pairing = abs(spacetime_inner_product(F, G))
    lhs_norm = spacetime_amalgam_norm(F, qt, q, rt, r, window_t, window_x).value
    rhs_norm = spacetime_amalgam_norm(G, qtc, qc, rtc, rc, window_t, window_x).value
    bound = lhs_norm * rhs_norm
    holds = pairing <= bound * (1.0 + 1e-10) + 1e-12
    return pairing, bound, holds


def interpolate_exponents(p0, q0, p1, q1, theta):
    """Reciprocal-affine exponent interpolation, exact in rationals.

    1/p = theta/p0 + (1-theta)/p1 and likewise for q, with 1/inf = 0.
    Requires 0 < theta < 1 and q0 < inf or q1 < inf.
    """
    theta = Fraction(theta) if not isinstance(theta, float) else Fraction(str(theta))
    if not (0 < theta < 1):
        raise ValueError(f"theta must lie strictly inside (0, 1), got {theta}")
    u0, v0, u1, v1 = recip(p0), recip(q0), recip(p1), recip(q1)
    if v0 == 0 and v1 == 0:
        raise ValueError("interpolation requires q0 < inf or q1 < inf")
    p = from_recip(theta * u0 + (1 - theta) * u1)
    q = from_recip(theta * v0 + (1 - theta) * v1)
    return p, q


def inclusion_check(fld: SampledField, p1, q1, p2, q2, window: WindowSpec):
    """W(L^p1, L^q1) into W(L^p2, L^q2): norm comparison with constant 1.

    Requires p1 >= p2 and q1 <= q2 (the inclusion direction) and unit-cube
    partition windows, so the comparison constant is exactly 1.
    """
    p1f, q1f, p2f, q2f = (to_float(e) for e in (p1, q1, p2, q2))
    if p1f < p2f or q1f > q2f:
        raise ValueError(
            f"inclusion requires p1 >= p2 and q1 <= q2; got ({p1f},{q1f}) -> ({p2f},{q2f})")
    if not window.is_partition or not math.isclose(window.step, 1.0, rel_tol=1e-12):
        raise ValueError("inclusion_check requires unit-cube partition windows")
    lhs = amalgam_norm(fld, p2f, q2f, window).value
    rhs = amalgam_norm(fld, p1f, q1f, window).value
    holds = lhs <= rhs * (1.0 + 1e-10) + 1e-12
    return lhs, rhs, holds

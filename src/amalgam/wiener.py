"""Wiener amalgam norms on the lattice.

The amalgam norm of exponents (p, q) localizes f by a window translated
along a sub-lattice of step a, takes the inner L^p norm of each localized
piece, and then the outer norm

    ( a^n * sum_k ||f tau_k phi||_p^q )^(1/q)        (max over k for q = inf).

The a^(n/q) weight makes the outer sum a Riemann sum of the continuum
outer integral.

Any fixed window gives an equivalent norm.  amalgam_norm takes any window:
smooth ones (gaussian / smooth-bump) with unit L2 normalization, or an exact
cube partition (side == step), whose translates tile the lattice.  The
space-time norm and the Holder pairing fix unit cubes, where identities such
as W(L^p, L^p) = L^p and the pairing inequality hold with constant exactly 1.

Exponents are floats in [1, inf]; exact exponent arithmetic stays in the
exponents module.  Everything here is pure; amalgam sums visit window blocks
in a fixed order.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    trapezoid_weights,
)

__all__ = [
    "WindowSpec",
    "unit_cube_partition",
    "amalgam_norm",
    "weak_lorentz_norm",
    "spacetime_amalgam_norm",
    "holder_pairing",
]

_KINDS = ("gaussian", "smooth-bump", "cube-indicator")
_NEGLIGIBLE = 1e-16  # window blocks go while their summed bounds on a norm's share stay below


def _gaussian_scale(x: float, name: str) -> float:
    """2 x^2, the denominator of a gaussian of scale x; raises unless x > 0 and 2 x^2 is
    a positive finite float."""
    if not (x > 0 and 0 < 2.0 * x * x < math.inf):  # x * x, unlike x ** 2, cannot raise
        raise ValueError(f"the gaussian {name} must be > 0 with 2 {name}^2 a positive "
                         f"finite float, got {x}")
    return 2.0 * x ** 2


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
        if self.kind == "gaussian":
            _gaussian_scale(self.radius, "radius")
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
            return np.exp(-(dist ** 2) / _gaussian_scale(self.radius, "radius"))
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
    if abs(K - round(K)) > 1e-9 or round(K) < 1:
        raise ValueError(
            f"window step {win.step} does not divide the torus side {2 * grid.length}")
    return s, int(round(K))


def _window_blocks(win: WindowSpec, g: GridSpec, p: float, q: float):
    """Yield (j, phi_j) in order for the blocks j in range(K)^n that count in the window
    centered at 0, phi_j its L2-normalized (s,)*n values.  Dropping block j moves the norm
    by at most s^(n/p) K^(n/q) top_j / bottom of it, top_j its value nearest 0 and bottom
    the largest block minimum: the lowest blocks go while these sum to _NEGLIGIBLE."""
    if 2.0 * win.radius > 2.0 * g.length + 1e-12:
        raise ValueError("window support exceeds the torus; translates would self-overlap")
    s, K = _translate_shape(win, g)
    x = np.abs(g.axis_points()).reshape(K, s)  # |x| on each axis, one row per block
    dist = _euclidean if win.kind != "cube-indicator" else (
        lambda *axes: functools.reduce(np.maximum, np.ix_(*axes)))
    top = win.profile(dist(*(x.min(axis=1),) * g.n)).reshape(-1)
    bottom = win.profile(dist(*(x.max(axis=1),) * g.n)).max()
    order = np.argsort(top)
    bound = np.cumsum(top[order]) * (s ** (g.n / p) * K ** (g.n / q))
    top[order[bound <= _NEGLIGIBLE * bottom]] = 0.0
    kept = np.argwhere(top.reshape((K,) * g.n) > 0)
    mass = math.sqrt(g.cell_volume * sum(np.sum(win.profile(dist(*x[j])) ** 2) for j in kept))
    for j in kept:
        yield j, win.profile(dist(*x[j])) / mass


def _offset_major(values: np.ndarray, n: int, K: int, s: int, h: int) -> np.ndarray:
    """|values| over (..., N,)*n as one (..., s^n, K^n) array, offset r in a block and
    then block k, holding the lattice point k s + r - h (mod N) on each axis."""
    m = values.ndim - n
    out = np.empty(values.shape[:m] + (s,) * n + (K,) * n)
    order = (*range(m), *range(m + 1, m + 2 * n, 2), *range(m, m + 2 * n, 2))
    src = values.reshape(values.shape[:m] + (K, s) * n).transpose(order)
    # per axis: offsets r >= h are block k's r - h, offsets r < h block k - 1's r + s - h
    cuts = [(slice(h, None), slice(None), slice(None, s - h), slice(None))]
    if h:
        cuts += [(slice(None, h), slice(1, None), slice(s - h, None), slice(None, -1)),
                 (slice(None, h), slice(None, 1), slice(s - h, None), slice(-1, None))]
    for cut in itertools.product(cuts, repeat=n):
        r, k, r0, k0 = zip(*cut)
        np.abs(src[(..., *r0, *k0)], out=out[(..., *r, *k)])
    return out.reshape(values.shape[:m] + (s ** n, K ** n))


def _amalgam_norms(values: np.ndarray, p: float, q: float, window: WindowSpec,
                   g: GridSpec) -> tuple:
    """W(L^p, L^q) norms over the trailing grid axes of a (..., *g.shape) array,
    and the number of window blocks visited.  A partition's cubes are taken mod 2L:
    the cube at the box edge wraps, [L - a/2, L) u [-L, -L + a/2)."""
    if not (p >= 1 and q >= 1):
        raise ValueError("exponents must lie in [1, inf]")
    s, K = _translate_shape(window, g)
    n = g.n
    lead = values.shape[:-n]
    # with x = (k + j) a + r (block k + j, offset r), translate k's local norm is the L^p
    # norm over (j, r) of |f|[k + j, r] phi[j, r]: per block j that counts, L^p reductions
    # over r on contiguous _blocks slabs of offset rows, each rolled back by -j and
    # folded in (local[k]^p = sum_j local_j[k]^p; max of maxes at p = inf).  Partition
    # cube k, [k a - a/2, k a + a/2), is block k of |f| shifted by s//2, reduced in place.
    # The slabs are sized per slice, so a slice's sums do not depend on its batch.
    F = _offset_major(values, n, K, s, s // 2 if window.is_partition else 0)
    slabs = _blocks(s ** n, K ** n)
    blocks = [(np.zeros(n, int), None)] if window.is_partition else _window_blocks(
        window, g, p, q)
    local = None
    for count, (j, phi) in enumerate(blocks, 1):
        for r in slabs:
            a = F[..., r, :]
            part = _lq(a if phi is None else a * phi.reshape(-1, 1)[r], p, -2,
                       g.cell_volume)
            part = np.roll(part.reshape(lead + (K,) * n), tuple(-j), axis=tuple(range(-n, 0)))
            local = part if local is None else _lq(np.stack((local, part)), p, 0)
    return _lq(local.reshape(lead + (K ** n,)), q, -1, window.step ** n), count


def amalgam_norm(fld: SampledField, p: float, q: float, window: WindowSpec) -> NormResult:
    """W(L^p, L^q) norm of a field with the given window."""
    p, q = float(p), float(q)
    g = fld.grid
    value, nblocks = _amalgam_norms(fld.values, p, q, window, g)
    # n, L and step give the translate count that the benchmark's layer trace records
    meta = {"n": g.n, "L": g.length, "step": window.step}
    if not window.is_partition:
        meta["window_blocks"] = nblocks
    return NormResult(float(value), "wiener-amalgam", meta)


def weak_lorentz_norm(a, p: float):
    """Discrete weak L^{p,inf} norm sup_m m^(1/p) a*_m of |a| along its last axis, a* the
    nonincreasing rearrangement; 0 for an empty sequence.  Requires 0 < p < inf."""
    if not (0 < p < math.inf):
        raise ValueError(f"weak Lorentz exponent must be in (0, inf), got {p}")
    srt = np.sort(np.abs(a), axis=-1)[..., ::-1]
    m = np.arange(1, srt.shape[-1] + 1, dtype=float)
    return np.max(m ** (1.0 / p) * srt, axis=-1, initial=0.0)


def spacetime_amalgam_norm(blocks, g: GridSpec, times: np.ndarray, qt: float, q: float,
                           rt: float, r: float) -> float:
    """W(L^qt, L^q)_t W(L^rt, L^r)_x norm, on unit cubes in space and in time, of the
    slices at the increasing instants times.

    blocks yields the slices in order, a (k, *g.shape) block at a time (a whole
    (T, *g.shape) array is one block); each block is reduced at once to its spatial
    norms, and the time reduction then runs on the (T,) vector of those norms.  At
    qt = q and rt = r it is the mixed norm L^q_t L^r_x with trapezoid weights.
    """
    if not (qt >= 1 and q >= 1):
        raise ValueError("exponents must lie in [1, inf]")
    times = _instants(times)
    spatial = np.concatenate([_amalgam_norms(b, rt, r, unit_cube_partition(), g)[0]
                              for b in blocks])
    if len(spatial) != len(times):
        raise ValueError(f"{len(spatial)} slices for {len(times)} instants")
    # cube k is [k - 1/2, k + 1/2): the increasing instants fill the cubes in runs, each
    # starting at the first instant of its cube
    starts = np.unique(np.floor(times + 0.5), return_index=True)[1]
    local = _lq(spatial, qt, weight=trapezoid_weights(times), starts=starts)
    return float(_lq(local, q, -1))


def spacetime_inner_product(F: SpaceTimeField, G: SpaceTimeField) -> complex:
    """<F, G> over space-time with trapezoid weights in time."""
    if F.grid != G.grid or len(F.times) != len(G.times) or not np.allclose(F.times, G.times):
        raise ValueError("fields must share grid and time instants")
    T = len(F.times)
    per_slice = np.vecdot(G.values.reshape(T, -1), F.values.reshape(T, -1))
    return complex(trapezoid_weights(F.times) @ per_slice * F.grid.cell_volume)


def holder_pairing(F: SpaceTimeField, G: SpaceTimeField, qt, q, rt, r):
    """|<F, G>| against the product of dual amalgam norms, for float exponents.

    G's norm takes the Holder duals p / (p - 1) of F's exponents, 1 and inf being each
    other's duals.  Both norms are taken on unit cubes in space and in time,
    which tile space-time, so the inequality holds with constant exactly 1.
    """
    exps = [float(e) for e in (qt, q, rt, r)]
    duals = [math.inf if e == 1 else 1.0 if e == math.inf else e / (e - 1) for e in exps]
    pairing = abs(spacetime_inner_product(F, G))
    lhs_norm = spacetime_amalgam_norm([F.values], F.grid, F.times, *exps)
    rhs_norm = spacetime_amalgam_norm([G.values], G.grid, G.times, *duals)
    bound = lhs_norm * rhs_norm
    holds = pairing <= bound * (1.0 + 1e-10) + 1e-12
    return pairing, bound, holds

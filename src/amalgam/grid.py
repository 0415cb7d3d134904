"""Periodic lattice discretization of functions on R^n.

Functions live on the torus [-L, L)^n sampled at N points per axis.  A spectrum
is a field's Fourier coefficients c = fftn(f) / N^n over the trailing grid axes,
whose inverse is the bare sum ifftn(c, norm="forward"); a norm that reads a
spectrum carries the lattice constants in its weight.  N^n is a power of two,
so the scaling is exact, and |c| <= max |f|: a spectrum is no larger than its
field.  Up to the phase (-1)^(j_1 + ... + j_n) of a lattice that starts at -L,
(2L)^n c is the Riemann sum of the continuum transform fhat(xi) =
INT f(x) exp(-i xi.x) dx, so the continuum Parseval weight (dxi / 2 pi)^n of
|fhat|^2 becomes

    INT |f|^2 dx  =  dx^n N^n sum |c|^2,

an identity that is exact on the lattice and has no phase in it.

All operations are pure functions of their inputs; reductions use numpy's
fixed summation order, so results are reproducible run to run.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "SampledField",
    "SpaceTimeField",
    "NormResult",
    "lebesgue_norm",
    "trapezoid_weights",
    "write_container",
    "read_container",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic lattice on the torus [-L, L)^n.

    Position lattice per axis: x_m = -L + m * dx, m = 0..N-1, dx = 2L/N.
    Frequency lattice per axis: xi_j = (pi / L) * j, j = -N/2 .. N/2 - 1,
    stored in FFT (wrapped) order.
    """

    n: int
    length: float  # box half-length L
    npts: int      # points per axis N

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.n}")
        # keeps dx^n, the spectral weight (2L)^n and |xi|^2 well inside the float64 range
        if not 1e-50 <= self.length <= 1e50:
            raise ValueError(f"box half-length must lie in [1e-50, 1e50], got {self.length}")
        N = self.npts
        if N < 8 or (N & (N - 1)) != 0:
            raise ValueError(f"points per axis must be a power of two >= 8, got {N}")

    @property
    def dx(self) -> float:
        return 2.0 * self.length / self.npts

    @property
    def dxi(self) -> float:
        return np.pi / self.length

    @property
    def shape(self) -> tuple:
        return (self.npts,) * self.n

    @property
    def size(self) -> int:
        return self.npts ** self.n

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.n

    def axis_points(self) -> np.ndarray:
        """1-D position lattice -L + m*dx."""
        return -self.length + self.dx * np.arange(self.npts)

    def axis_frequencies(self) -> np.ndarray:
        """1-D angular frequency lattice in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.npts, d=self.dx)


def _euclidean(*axes: np.ndarray) -> np.ndarray:
    """|(a_1, .., a_n)| over the product of 1-D axes: the output is allocated first, and
    each axis's squares are added into it in axis order."""
    out = np.zeros(tuple(map(len, axes)))
    for c in np.ix_(*axes):
        out += c ** 2
    return np.sqrt(out, out=out)


@functools.lru_cache(maxsize=16)
def _shells(grid: GridSpec) -> tuple:
    """Distinct |x| on the position lattice, ascending, and the flat index of each lattice
    point into them: the kernel profile evaluates its radial K_t once per shell and
    gathers it with the index.  Cached per grid; both arrays are read-only."""
    shells = np.unique(_euclidean(*(grid.axis_points(),) * grid.n).ravel(), return_inverse=True)
    for a in shells:
        a.setflags(write=False)
    return shells


def _blocks(count: int, size: int) -> list:
    """Slices of range(count), items of size samples each, of about 2^16 samples (at least
    one item): the one block size in which stacks are built and reduced."""
    step = max(1, 2 ** 16 // size)
    return [slice(i, i + step) for i in range(0, count, step)]


def _instants(times) -> np.ndarray:
    """times as a float array, checked to be 1-D, non-empty, finite and strictly increasing."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-D array")
    bad = np.flatnonzero(~np.isfinite(times))
    if len(bad):
        raise ValueError(f"times must be finite, got {times[bad[0]]} at index {bad[0]}")
    if not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    return times


def _checked(values, shape: tuple) -> np.ndarray:
    """values as an array of the given shape, all finite: float64 if they are real,
    complex128 otherwise.  A float64 array is neither cast nor copied."""
    values = np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)
    if values.shape != shape:
        raise ValueError(f"value shape {values.shape} does not match {shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite entries")
    return values


@dataclass
class SampledField:
    """One amplitude per lattice point: float64 values, 8 bytes per point, when the data
    are real, complex128 values, 16 bytes, otherwise."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = _checked(self.values, self.grid.shape)


@dataclass
class SpaceTimeField:
    """A field at T instants on one grid: ``values[k]`` is the slice at ``times[k]``.

    ``values`` is one complex (T, *grid.shape) array, T * N^n * 16 bytes, checked
    once, on construction.  propagator.evolve_blocks, the space-time norms and the
    container's writer and reader work by _blocks and build none.
    """

    grid: GridSpec
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = _instants(self.times)
        self.values = _checked(np.asarray(self.values, dtype=complex),
                               self.times.shape + self.grid.shape)


@dataclass
class NormResult:
    """The record that the norm command writes: a computed norm, and in meta the health
    fields of its computation (hsigma_norm's zero_mode_fraction, amalgam_norm's
    window_blocks), plus amalgam_norm's n, L and step, which the benchmark's layer trace
    reads.  The parameters that reproduce it are the command's manifest's."""

    value: float
    space: str
    meta: dict = field(default_factory=dict)


_FMAX = np.finfo(float).max


def _lq(a: np.ndarray, q: float, axis=None, weight=1.0, starts=None) -> np.ndarray:
    """(sum weight * a^q)^(1/q) over the given axes of a >= 0; the max for q = inf.

    a is overwritten: it is divided by its peak before the power, so a^q can
    neither overflow nor underflow; a non-finite peak (an overflowed transform)
    or a norm beyond the float64 range is a ValueError.  weight is a scalar or
    an array that broadcasts along the reduced axes.  One ufunc takes the root,
    so a batch and one array round alike.  With starts, a is 1-D and is reduced
    over each run a[starts[k]:starts[k + 1]] (the last run to the end) instead.
    """
    if starts is None:
        peak = a.max(axis=axis, keepdims=True)
    else:
        peak = np.maximum.reduceat(a, starts)
    if not np.all(np.isfinite(peak)):
        raise ValueError("non-finite values (overflow?) reached a norm")
    if np.isinf(q):
        return np.squeeze(peak, axis) if starts is None else peak
    peak[peak == 0] = 1.0  # a zero slice stays zero
    a /= peak if starts is None else np.repeat(peak, np.diff(starts, append=len(a)))
    a **= q
    a *= weight
    if starts is None:
        peak, total = np.squeeze(peak, axis), np.sum(a, axis=axis)
    else:
        total = np.add.reduceat(a, starts)
    root = np.power(total, 1.0 / q)
    # peak * root overflows only if root > 1, and then _FMAX / root cannot; NaN fails too
    if not (peak <= _FMAX / np.maximum(root, 1.0)).all():
        raise ValueError("non-finite values reached a norm" if np.isnan(root).any()
                         else "the norm exceeds the float64 range")
    return peak * root


def lebesgue_norm(fld: SampledField, p: float) -> NormResult:
    """Riemann-sum L^p norm; lattice max for p = inf."""
    p = float(p)
    if not p >= 1:
        raise ValueError(f"p must be in [1, inf], got {p}")
    return NormResult(float(_lq(np.abs(fld.values), p, None, fld.grid.cell_volume)), "lebesgue")


def trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """Trapezoidal quadrature weights for the given instants.

    A single instant gets unit weight so that one-slice space-time norms
    reduce to the spatial norm.
    """
    times = np.asarray(times, dtype=float)
    if len(times) == 1:
        return np.ones(1)
    w = np.zeros(len(times))
    dt = np.diff(times)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


# ---------------------------------------------------------------------------
# Binary container: header (n, L, N, slice count), the instants, then the
# (T, *shape) values as complex128 (each sample's re and im float64 side by
# side), all little-endian.  It is written and read one _blocks block of
# slices at a time; no whole-field array is built.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<qdqq")


def write_container(path, g: GridSpec, times, blocks) -> None:
    """Write the header and the instants, checked as SpaceTimeField checks them, then
    each (k, *g.shape) block of the iterable in turn.  A block of another shape, or
    blocks that do not hold len(times) slices in all, is a ValueError that names the
    file; if anything fails, the partial file is removed."""
    times = _instants(times)
    with open(path, "wb") as fh:
        try:
            fh.write(_HEADER.pack(g.n, g.length, g.npts, len(times)))
            fh.write(np.asarray(times, dtype="<f8").tobytes())
            count = 0
            for block in blocks:
                block = np.ascontiguousarray(block, dtype="<c16")
                if block.shape[1:] != g.shape:
                    raise ValueError(f"field container {path}: a block of shape "
                                     f"{block.shape}, not (k, *{g.shape})")
                count += len(block)
                fh.write(block)
            if count != len(times):
                raise ValueError(f"field container {path}: the blocks hold {count} slices, "
                                 f"the instants {len(times)}")
        except BaseException:
            fh.close()
            os.unlink(path)
            raise


def read_container(path) -> tuple:
    """(grid, instants, first slice) of a container whose header, byte count, instants
    and slices all check out: the slices are read one _blocks block at a time, each
    checked finite, and only the first is kept.  Any fault is a ValueError that names
    the file."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < _HEADER.size:
                raise ValueError(f"{size} bytes, shorter than the {_HEADER.size}-byte header")
            n, length, npts, nslices = _HEADER.unpack(fh.read(_HEADER.size))
            if n not in (1, 2, 3) or npts < 1 or nslices < 1:
                raise ValueError(f"bad header n={n}, npts={npts}, slices={nslices}")
            want = _HEADER.size + 8 * nslices * (1 + 2 * npts ** n)
            if size != want:
                raise ValueError(f"{size} bytes, but its header (n={n}, npts={npts}, "
                                 f"slices={nslices}) needs {want}")
            grid = GridSpec(n=n, length=length, npts=npts)
            times = _instants(np.fromfile(fh, dtype="<f8", count=nslices))
            first = None
            for b in _blocks(nslices, grid.size):
                shape = times[b].shape + grid.shape
                values = np.fromfile(fh, dtype="<c16", count=shape[0] * grid.size)
                values = _checked(values.reshape(shape), shape)
                first = values[0] if first is None else first
                del values  # not held while the next block is read
    except ValueError as exc:
        raise ValueError(f"field container {path}: {exc}") from None
    return grid, times, first

"""Periodic lattice discretization of functions on R^n.

Functions live on the torus [-L, L)^n sampled at N points per axis.  The
discrete Fourier transform is normalized so that it approximates the
continuum transform

    fhat(xi) = INT f(x) exp(-i xi.x) dx,
    f(x)     = (2 pi)^{-n} INT fhat(xi) exp(i xi.x) dxi,

i.e. the forward sum carries dx^n and the inverse carries
(dxi / 2 pi)^n.  With that convention the Riemann-sum L2 norm and the
spectral l2 norm agree exactly (discrete Parseval), so lattice norms
approximate continuum norms with no stray factors.

All operations are pure functions of their inputs; reductions use numpy's
fixed summation order, so results are reproducible run to run.
"""

from __future__ import annotations

import functools
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .extreal import to_float

__all__ = [
    "GridSpec",
    "SampledField",
    "SpaceTimeField",
    "NormResult",
    "transform",
    "lebesgue_norm",
    "mixed_lebesgue_norm",
    "trapezoid_weights",
    "boundary_mass_fraction",
    "check_boundary_mass",
    "write_spacetime",
    "read_spacetime",
    "write_field",
]

BOUNDARY_MASS_TOL = 1e-6


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
        # keeps dx^n, (dxi / 2 pi)^n and |xi|^2 well inside the float64 range
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

    def meshgrid(self) -> tuple:
        axes = (self.axis_points(),) * self.n
        return np.meshgrid(*axes, indexing="ij")

    def radii(self) -> np.ndarray:
        """|x| on the position lattice."""
        return _euclidean(self.axis_points(), self.n)

    def frequency_radii(self) -> np.ndarray:
        """|xi| on the frequency lattice (FFT order)."""
        return _euclidean(self.axis_frequencies(), self.n)


def _euclidean(axis: np.ndarray, n: int) -> np.ndarray:
    """|(a_1, .., a_n)| over the n-fold product of a 1-D axis, summed in axis order."""
    squares = sum(c ** 2 for c in np.ix_(*(axis,) * n))
    return np.sqrt(squares, out=squares)


def _checked(values, shape: tuple) -> np.ndarray:
    """values as a complex array of the given shape, all finite."""
    values = np.asarray(values, dtype=complex)
    if values.shape != shape:
        raise ValueError(f"value shape {values.shape} does not match {shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite entries")
    return values


@dataclass
class SampledField:
    """One complex amplitude per lattice point."""

    grid: GridSpec
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.values = _checked(self.values, self.grid.shape)


@dataclass
class SpaceTimeField:
    """A field at T instants on one grid: ``values[k]`` is the slice at ``times[k]``.

    ``values`` is one complex (T, *grid.shape) array, T * N^n * 16 bytes
    (576 slices of 128^2 take 151 MB); it is checked once, on construction.
    """

    grid: GridSpec
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or len(self.times) == 0:
            raise ValueError("times must be a non-empty 1-D array")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        self.values = _checked(self.values, self.times.shape + self.grid.shape)


@dataclass
class NormResult:
    """A computed norm plus the metadata needed to reproduce it.

    ``est_error`` is a relative discretization/quadrature estimate when one
    is available (None otherwise).
    """

    value: float
    space: str
    exponents: dict
    meta: dict = field(default_factory=dict)
    est_error: float | None = None

    def to_json_dict(self) -> dict:
        def enc(v):
            if isinstance(v, float) and np.isinf(v):
                return "inf"
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            return v

        return {
            "value": float(self.value),
            "space": self.space,
            "exponents": {k: enc(v) for k, v in self.exponents.items()},
            "meta": {k: enc(v) for k, v in self.meta.items()},
            "est_error": self.est_error,
        }


def _phase(grid: GridSpec) -> np.ndarray:
    """(-1)^(j_1+...+j_n) on the frequency lattice, from x_m = -L + m dx."""
    j = np.fft.fftfreq(grid.npts, d=1.0 / grid.npts)  # integer indices, FFT order
    sign = np.where(np.round(j).astype(int) % 2 == 0, 1.0, -1.0)
    out = sign
    for _ in range(grid.n - 1):
        out = np.multiply.outer(out, sign)
    return out


def _dft(values: np.ndarray, g: GridSpec, inverse: bool = False, out=None) -> np.ndarray:
    """transform() over the trailing grid axes of a (..., *g.shape) array.

    All leading slices go through one batched FFT; ``out`` may be ``values``
    itself, and the transform then runs in place.
    """
    axes = tuple(range(-g.n, 0))
    ph = _phase(g)
    if inverse:
        # (dxi/2pi)^n sum = ifftn * N^n * (dxi/2pi)^n = ifftn / dx^n
        out = np.multiply(values, ph, out=out)
        np.fft.ifftn(out, axes=axes, out=out)
        out /= g.cell_volume
    else:
        out = np.fft.fftn(values, axes=axes, out=out)
        out *= g.cell_volume * ph
    return out


def transform(fld: SampledField, direction: str = "forward") -> SampledField:
    """Forward ('forward') or inverse ('inverse') discrete Fourier transform.

    Forward output lives on the frequency lattice in FFT order; the phase
    factor accounts for the position lattice starting at -L.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return SampledField(fld.grid, _dft(fld.values, fld.grid, direction == "inverse"), fld.label)


def _lq(a: np.ndarray, q: float, axis=None, weight=1.0) -> np.ndarray:
    """(sum weight * a^q)^(1/q) over the given axes of a >= 0; the max for q = inf.

    a is overwritten: it is divided by its peak before the power, so a^q can
    neither overflow nor underflow.  weight is a scalar or an array that
    broadcasts along the reduced axes.
    """
    peak = a.max(axis=axis, keepdims=True)
    if np.isinf(q):
        return np.squeeze(peak, axis)
    peak[peak == 0] = 1.0  # a zero slice stays zero
    a /= peak
    a **= q
    a *= weight
    return np.squeeze(peak, axis) * np.sum(a, axis=axis) ** (1.0 / q)


def lebesgue_norm(fld: SampledField, p: float) -> NormResult:
    """Riemann-sum L^p norm; lattice max for p = inf."""
    p = to_float(p)
    if p < 1:
        raise ValueError(f"p must be in [1, inf], got {p}")
    value = float(_lq(np.abs(fld.values), p, None, fld.grid.cell_volume))
    return NormResult(
        value=value,
        space="lebesgue",
        exponents={"p": p},
        meta={"n": fld.grid.n, "L": fld.grid.length, "N": fld.grid.npts},
    )


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


def mixed_lebesgue_norm(stf: SpaceTimeField, q: float, r: float) -> NormResult:
    """L^q in time of the spatial L^r norms, with trapezoid time weights."""
    q, r = to_float(q), to_float(r)
    if q < 1 or r < 1:
        raise ValueError("exponents must be in [1, inf]")
    spatial = _lq(np.abs(stf.values), r, tuple(range(1, stf.grid.n + 1)), stf.grid.cell_volume)
    value = float(_lq(spatial, q, 0, trapezoid_weights(stf.times)))
    return NormResult(
        value=value,
        space="mixed-lebesgue",
        exponents={"q": q, "r": r},
        meta={"n": stf.grid.n, "L": stf.grid.length, "N": stf.grid.npts,
              "ntimes": len(stf.times)},
    )


def boundary_mass_fraction(fld: SampledField) -> float:
    """Fraction of |f|^2 mass within distance L/4 of the torus boundary."""
    g = fld.grid
    sup = functools.reduce(np.maximum, np.ix_(*(np.abs(g.axis_points()),) * g.n))
    near = sup >= 0.75 * g.length
    total = float(_lq(np.abs(fld.values), 2))
    if total == 0.0:
        return 0.0
    return float((_lq(np.abs(fld.values[near]), 2) / total) ** 2)


def check_boundary_mass(fld: SampledField, tol: float = BOUNDARY_MASS_TOL) -> float:
    """Warn when boundary mass exceeds tol (wrap-around pollutes decay)."""
    frac = boundary_mass_fraction(fld)
    if frac >= tol:
        warnings.warn(
            f"field {fld.label!r} has boundary mass fraction {frac:.3e} >= {tol:.1e}; "
            "increase the box half-length",
            stacklevel=2,
        )
    return frac


# ---------------------------------------------------------------------------
# Binary container: header (n, L, N, slice count), the instants, then the
# (T, *shape) values as complex128 (each sample's re and im float64 side by
# side), all little-endian.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<qdqq")


def write_spacetime(stf: SpaceTimeField, path) -> None:
    g = stf.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(g.n, g.length, g.npts, len(stf.times)))
        fh.write(np.asarray(stf.times, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(stf.values, dtype="<c16"))


def read_spacetime(path) -> SpaceTimeField:
    """Read a container; a bad header or byte count is a ValueError naming the file."""
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
            times = np.fromfile(fh, dtype="<f8", count=nslices)
            values = np.fromfile(fh, dtype="<c16", count=nslices * grid.size)
        return SpaceTimeField(grid, times, values.reshape((nslices,) + grid.shape))
    except ValueError as exc:
        raise ValueError(f"field container {path}: {exc}") from None


def write_field(fld: SampledField, path, time: float = 0.0) -> None:
    write_spacetime(SpaceTimeField(fld.grid, [time], fld.values[None]), path)

"""Grids, discrete differential operators on plain arrays, and snapshot I/O.

Geometry conventions
--------------------
Three geometries share one code path:

* ``STRIP2``: a vertical slice, periodic in x1 with period 2, walls at
  x3 = 0 and x3 = 1.  Arrays have shape (n3, n1).  Fields are read as
  x2-independent, so vector calculus keeps all three components with
  d/dx2 = 0.
* ``STRIP3``: the full layer, periodic in x1 and x2 (period 2 each), walls
  at x3 = 0, 1.  Arrays have shape (n3, n2, n1).
* ``TORUS2``: the horizontal torus (periodic square of side 2) carrying
  the depth-independent limit fields.  Arrays have shape (n2, n1).

Horizontal derivatives are Fourier-spectral (wavenumbers pi * m for integer
mode m, since the period is 2); the vertical direction uses second-order
centered differences on a vertex-centered grid that includes both walls,
with one-sided second-order closures at the walls.  Nonlinear products of
spectral fields should pass through :func:`dealias_arr` (2/3 rule).

Because horizontal and vertical operators act along different array axes,
mixed second derivatives commute exactly; identities such as div(curl v) = 0
hold to rounding for this discretization.
"""

from __future__ import annotations

import enum
import os
import struct

import numpy as np

__all__ = [
    "Geometry",
    "Grid",
    "FieldError",
    "SnapshotFormatError",
    "dealias_arr",
    "ddx1_arr",
    "ddx2_arr",
    "ddx3_arr",
    "d2dx3_arr",
    "helmholtz_solve_arr",
    "lap_h_arr",
    "mean_arr",
    "l2_arr",
    "wall_flux_arr",
    "leray_arr",
    "cross3",
    "write_snapshot",
    "read_snapshot",
]


class FieldError(ValueError):
    """Raised for malformed or non-finite field data."""


class SnapshotFormatError(IOError):
    """Raised when a snapshot file cannot be parsed."""


class Geometry(enum.Enum):
    STRIP2 = 0
    STRIP3 = 1
    TORUS2 = 2


def _is_pow2(n: int) -> bool:
    return n >= 4 and (n & (n - 1)) == 0


class Grid:
    """Structured grid for one of the three geometries.

    Horizontal resolutions n1 (and n2 where present) must be powers of two;
    n3 counts vertical vertices including both walls (n3 >= 5 so the
    one-sided closures have room).
    """

    def __init__(self, geometry: Geometry, n1: int, n2: int = 1, n3: int = 1):
        self.geometry = geometry
        if not _is_pow2(n1):
            raise FieldError(f"n1 must be a power of two >= 4, got {n1}")
        self.n1 = int(n1)
        if geometry in (Geometry.STRIP3, Geometry.TORUS2):
            if not _is_pow2(n2):
                raise FieldError(f"n2 must be a power of two >= 4, got {n2}")
            self.n2 = int(n2)
        else:
            self.n2 = 1
        if geometry in (Geometry.STRIP2, Geometry.STRIP3):
            if n3 < 5:
                raise FieldError(f"n3 must be >= 5 for wall closures, got {n3}")
            self.n3 = int(n3)
        else:
            self.n3 = 1

        if geometry is Geometry.STRIP2:
            self.shape = (self.n3, self.n1)
            self.hshape = (self.n1,)
            self.volume = 2.0
        elif geometry is Geometry.STRIP3:
            self.shape = (self.n3, self.n2, self.n1)
            self.hshape = (self.n2, self.n1)
            self.volume = 4.0
        else:
            self.shape = (self.n2, self.n1)
            self.hshape = (self.n2, self.n1)
            self.volume = 4.0

        self.has_walls = geometry is not Geometry.TORUS2
        self.has_x2 = geometry in (Geometry.STRIP3, Geometry.TORUS2)

        self.dx1 = 2.0 / self.n1
        self.dx2 = 2.0 / self.n2 if self.has_x2 else None
        self.dx3 = 1.0 / (self.n3 - 1) if self.has_walls else None

        self.x1 = -1.0 + self.dx1 * np.arange(self.n1)
        self.x2 = -1.0 + self.dx2 * np.arange(self.n2) if self.has_x2 else None
        self.x3 = np.linspace(0.0, 1.0, self.n3) if self.has_walls else None

        # trapezoidal quadrature weights over (0, 1), sum exactly 1
        if self.has_walls:
            w = np.full(self.n3, self.dx3)
            w[0] = w[-1] = 0.5 * self.dx3
            self.w3 = w
        else:
            self.w3 = None

        # spectral machinery: wavenumbers pi*m on a period-2 direction
        n1r = self.n1 // 2 + 1
        self.k1r = np.pi * np.arange(n1r).astype(float)
        self.k1r_d = self.k1r.copy()
        self.k1r_d[-1] = 0.0  # odd derivative of the Nyquist mode is dropped
        m1 = np.arange(n1r)
        keep1 = m1 <= self.n1 // 3
        if self.has_x2:
            m2 = np.fft.fftfreq(self.n2, d=1.0 / self.n2)
            self.k2 = np.pi * m2
            self.k2_d = self.k2.copy()
            self.k2_d[self.n2 // 2] = 0.0
            keep2 = np.abs(m2) <= self.n2 // 3
            self.ksq = self.k2[:, None] ** 2 + self.k1r[None, :] ** 2
            self.dealias_mask = keep2[:, None] & keep1[None, :]
        else:
            self.k2 = None
            self.k2_d = None
            self.ksq = self.k1r ** 2
            self.dealias_mask = keep1

    # -- identity ---------------------------------------------------------
    def _key(self):
        return (self.geometry, self.n1, self.n2, self.n3)

    def __eq__(self, other):
        return isinstance(other, Grid) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Grid({self.geometry.name}, n1={self.n1}, n2={self.n2}, n3={self.n3})"

    def coords(self) -> dict:
        """Coordinate arrays broadcastable to ``shape`` (keys x1, x2, x3)."""
        if self.geometry is Geometry.STRIP2:
            return {"x1": self.x1[None, :], "x3": self.x3[:, None]}
        if self.geometry is Geometry.STRIP3:
            return {
                "x1": self.x1[None, None, :],
                "x2": self.x2[None, :, None],
                "x3": self.x3[:, None, None],
            }
        return {"x1": self.x1[None, :], "x2": self.x2[:, None]}


# -- raw array helpers (axis conventions: x3 = axis 0 on strips, x2 = -2, x1 = -1)


def hfft(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Real-to-complex horizontal transform (rfft on x1, full fft on x2)."""
    if grid.has_x2:
        return np.fft.rfftn(data, axes=(-2, -1))
    return np.fft.rfft(data, axis=-1)


def hifft(spec: np.ndarray, grid: Grid) -> np.ndarray:
    if grid.has_x2:
        return np.fft.irfftn(spec, s=(grid.n2, grid.n1), axes=(-2, -1))
    return np.fft.irfft(spec, n=grid.n1, axis=-1)


def ddx1_arr(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral d/dx1 along the last axis."""
    spec = np.fft.rfft(data, axis=-1)
    spec *= 1j * grid.k1r_d
    return np.fft.irfft(spec, n=grid.n1, axis=-1)


def ddx2_arr(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral d/dx2; identically zero on STRIP2 (x2-independent fields)."""
    if not grid.has_x2:
        return np.zeros_like(data)
    spec = np.fft.fft(data, axis=-2)
    shape = [1] * data.ndim
    shape[-2] = grid.n2
    spec *= (1j * grid.k2_d).reshape(shape)
    return np.real(np.fft.ifft(spec, axis=-2))


def lap_h_arr(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral horizontal Laplacian (all periodic directions)."""
    spec = hfft(data, grid)
    spec *= -grid.ksq
    return hifft(spec, grid)


def ddx3_arr(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order d/dx3 along axis 0; one-sided closures at the walls."""
    if not grid.has_walls:
        return np.zeros_like(data)
    h = grid.dx3
    out = np.empty_like(data)
    out[1:-1] = (data[2:] - data[:-2]) / (2.0 * h)
    out[0] = (-3.0 * data[0] + 4.0 * data[1] - data[2]) / (2.0 * h)
    out[-1] = (3.0 * data[-1] - 4.0 * data[-2] + data[-3]) / (2.0 * h)
    return out


def d2dx3_arr(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order d2/dx3^2 along axis 0; one-sided closures at the walls."""
    if not grid.has_walls:
        return np.zeros_like(data)
    h2 = grid.dx3 ** 2
    out = np.empty_like(data)
    out[1:-1] = (data[2:] - 2.0 * data[1:-1] + data[:-2]) / h2
    out[0] = (2.0 * data[0] - 5.0 * data[1] + 4.0 * data[2] - data[3]) / h2
    out[-1] = (2.0 * data[-1] - 5.0 * data[-2] + 4.0 * data[-3] - data[-4]) / h2
    return out


def helmholtz_solve_arr(rhs: np.ndarray, bottom: np.ndarray, top: np.ndarray,
                        c: float, grid: Grid) -> np.ndarray:
    """Solve (I - c (lap_h + d2/dx3^2)) x = rhs on a strip, with the
    centered second difference on interior rows and the Dirichlet values
    x = bottom at x3 = 0 and x = top at x3 = 1 (the wall rows of rhs are
    not read).

    The wall values are lifted onto the first and last interior rows; the
    interior operator is then diagonal in horizontal Fourier modes times
    the sine modes sin(pi j i3 / (n3 - 1)) of the Dirichlet second
    difference, which one FFT of the odd extension in x3 reaches (Hockney's
    fast direct solver, J. ACM 1965)."""
    n = grid.n3 - 1
    h2 = grid.dx3 ** 2
    inner = rhs[1:-1].copy()
    inner[0] += (c / h2) * bottom
    inner[-1] += (c / h2) * top
    spec = hfft(inner, grid)
    ext = np.zeros((2 * n,) + spec.shape[1:], dtype=complex)
    ext[1:n] = spec
    ext[n + 1:] = -spec[::-1]
    np.fft.fft(ext, axis=0, out=ext)
    j = np.arange(2 * n).reshape((-1,) + (1,) * grid.ksq.ndim)
    ext /= 1.0 + c * grid.ksq + (2.0 * c / h2) * (1.0 - np.cos(np.pi * j / n))
    np.fft.ifft(ext, axis=0, out=ext)
    out = np.empty(grid.shape)
    out[1:-1] = hifft(ext[1:n], grid)
    out[0] = bottom
    out[-1] = top
    return out


def dealias_arr(data: np.ndarray, grid: Grid) -> np.ndarray:
    """2/3-rule truncation of the horizontal spectrum."""
    spec = hfft(data, grid)
    spec *= grid.dealias_mask
    return hifft(spec, grid)


def mean_arr(data: np.ndarray, grid: Grid) -> float:
    """Domain average: exact horizontally, trapezoidal vertically."""
    if grid.has_walls:
        column = data.reshape(grid.n3, -1).mean(axis=1)
        return float(grid.w3 @ column)
    return float(data.mean())


def l2_arr(data: np.ndarray, grid: Grid) -> float:
    """Volume-weighted L2 norm of a strip-shaped or horizontal (hshape)
    array; leading component axes are summed."""
    sq = np.asarray(data, dtype=float)
    sq = sq * sq
    strip = sq.shape[-len(grid.shape):] == grid.shape
    base = grid.shape if strip else grid.hshape
    while sq.ndim > len(base):
        sq = sq.sum(axis=0)
    mean = mean_arr(sq, grid) if strip else float(sq.mean())
    return float(np.sqrt(grid.volume * mean))


def wall_flux_arr(data: np.ndarray, grid: Grid) -> float:
    """Averaged boundary flux of grad f through the walls,

        mean_h d3f(top) - mean_h d3f(bottom)

    with one-sided second-order wall derivatives.  The stencil
    (-4f0 + 7f1 - 4f2 + f3)/(2h) is the one for which the trapezoid rule
    applied to the second-difference Laplacian telescopes exactly, so the
    discrete divergence theorem mean(laplacian f) = wall flux holds to
    rounding, not just to truncation order.
    """
    h = grid.dx3
    bottom = (-4.0 * data[0] + 7.0 * data[1] - 4.0 * data[2] + data[3]) / (2.0 * h)
    top = (4.0 * data[-1] - 7.0 * data[-2] + 4.0 * data[-3] - data[-4]) / (2.0 * h)
    return float(top.mean() - bottom.mean())


def leray_arr(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral Leray projection of a 2-component horizontal field."""
    spec = np.fft.rfftn(v, axes=(-2, -1))
    k1 = grid.k1r_d[None, :]
    k2 = grid.k2_d[:, None]
    ksq = k1 ** 2 + k2 ** 2
    ksq_safe = np.where(ksq > 0, ksq, 1.0)
    dot = (k1 * spec[0] + k2 * spec[1]) / ksq_safe
    spec[0] -= k1 * dot
    spec[1] -= k2 * dot
    return np.fft.irfftn(spec, s=(grid.n2, grid.n1), axes=(-2, -1))


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of (3, ...) arrays along the leading axis."""
    return np.stack([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


# -- snapshot I/O --------------------------------------------------------------

_MAGIC = b"OBMQ"
_VERSION = 1


def write_snapshot(path, grid: Grid, fields: dict) -> None:
    """Write named scalar arrays in the portable binary layout.

    Header: magic 'OBMQ', u32 version, u32 geometry tag, u32 n1, n2, n3
    (all little-endian).  Each field follows as an 8-byte ASCII name padded
    with spaces and the little-endian float64 values in x3-major,
    x1-fastest (C) order.

    Every name and shape is checked before anything is written, and the
    file is written under a temporary name and renamed into place, so
    ``path`` ends up either whole or untouched.  Names must be at most 8
    ASCII characters with no trailing blanks, which the reader strips.
    """
    checked = []
    for name, data in fields.items():
        if not name.isascii() or len(name) > 8 or name != name.rstrip():
            raise SnapshotFormatError(
                f"field name {name!r} is not at most 8 ASCII characters "
                "without trailing blanks")
        data = np.asarray(data, dtype=float)
        if data.shape != grid.shape:
            raise SnapshotFormatError(
                f"field {name!r} shape {data.shape} != grid shape {grid.shape}")
        checked.append((name.encode("ascii").ljust(8, b" "), data))
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(struct.pack("<4sIIIII", _MAGIC, _VERSION, grid.geometry.value,
                                 grid.n1, grid.n2, grid.n3))
            for raw, data in checked:
                fh.write(raw)
                fh.write(np.ascontiguousarray(data).astype("<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_snapshot(path):
    """Read a snapshot; returns (grid, dict of named arrays)."""
    with open(path, "rb") as fh:
        head = fh.read(24)
        if len(head) != 24:
            raise SnapshotFormatError("truncated header")
        magic, version, geom, n1, n2, n3 = struct.unpack("<4sIIIII", head)
        if magic != _MAGIC:
            raise SnapshotFormatError(f"bad magic {magic!r}")
        if version != _VERSION:
            raise SnapshotFormatError(f"unsupported version {version}")
        try:
            geometry = Geometry(geom)
        except ValueError as exc:
            raise SnapshotFormatError(f"unknown geometry tag {geom}") from exc
        grid = Grid(geometry, n1, n2, n3)
        count = int(np.prod(grid.shape))
        fields = {}
        while True:
            name_raw = fh.read(8)
            if not name_raw:
                break
            if len(name_raw) != 8:
                raise SnapshotFormatError("truncated field name")
            payload = fh.read(8 * count)
            if len(payload) != 8 * count:
                raise SnapshotFormatError("truncated field payload")
            name = name_raw.decode("ascii").rstrip()
            fields[name] = np.frombuffer(payload, dtype="<f8").reshape(grid.shape).copy()
        return grid, fields

"""Grids, discrete differential operators on plain arrays, and snapshot I/O.

Geometry conventions
--------------------
Two geometries share one code path:

* ``STRIP2``: a vertical slice, periodic in x1 with period 2, walls at
  x3 = 0 and x3 = 1.  Arrays have shape (n3, n1).  Fields are read as
  x2-independent, so vector calculus keeps all three components with
  d/dx2 = 0.  Both solvers run here.
* ``TORUS2``: the horizontal torus (periodic square of side 2), on which
  the structure of the limit's magnetic force is checked (acceptance
  criterion 3).  Arrays have shape (n2, n1).

Horizontal derivatives are Fourier-spectral (wavenumbers pi * m for integer
mode m, since the period is 2); the vertical direction uses second-order
centered differences on a vertex-centered grid that includes both walls,
with one-sided second-order closures at the walls.  Nonlinear products of
spectral fields are truncated by the 2/3 rule once per sum of products, not
again on results already band-limited (derivatives of such a sum).

Because horizontal and vertical operators act along different array axes,
mixed second derivatives commute exactly; identities such as div(curl v) = 0
hold to rounding for this discretization.  So :func:`ddx3_arr` also acts on
a spectrum from :func:`hfft`: a solver can sum d1 and d3 terms of several
fluxes there, apply ``dealias_mask`` and make one :func:`hifft`.

On a strip with Dirichlet walls, the Laplacian of the interior rows is
diagonal in x1 Fourier modes times x3 sine modes.  :func:`sine_modes` and
:func:`from_sine_modes` are the one transform pair into that basis, and
the only code that builds the odd extension in x3; the limit solver's
implicit heat step acts there mode by mode.  The horizontal-mean mode of
that step is a solve on the x1-mean column alone
(:func:`helmholtz_solve_column`), through the same x3 transform.
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
    "field_array",
    "dealias_arr",
    "ddx1_arr",
    "ddx2_arr",
    "ddx3_arr",
    "d2dx3_arr",
    "helmholtz_solve_column",
    "sine_modes",
    "from_sine_modes",
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


def field_array(data, shape: tuple, what: str) -> np.ndarray:
    """``data`` as a float array, checked to have ``shape`` and finite
    values: the one check of a solver input array, raising
    :class:`FieldError` that names the field ``what``."""
    arr = np.asarray(data, dtype=float)
    if arr.shape != shape:
        raise FieldError(f"{what} shape {arr.shape} != {shape}")
    if not np.all(np.isfinite(arr)):
        raise FieldError(f"non-finite values in {what}")
    return arr


class Geometry(enum.Enum):
    STRIP2 = 0
    TORUS2 = 2  # snapshot tag 1 is retired: readers reject it as unknown


def _is_pow2(n: int) -> bool:
    return n >= 4 and (n & (n - 1)) == 0


class Grid:
    """Structured grid for one of the two geometries.

    Horizontal resolutions n1 (and n2 on the torus) must be powers of two;
    n3 counts vertical vertices including both walls (n3 >= 5 so the
    one-sided closures have room).
    """

    def __init__(self, geometry: Geometry, n1: int, n2: int = 1, n3: int = 1):
        self.geometry = geometry
        if not _is_pow2(n1):
            raise FieldError(f"n1 must be a power of two >= 4, got {n1}")
        self.n1 = int(n1)
        self.has_walls = geometry is Geometry.STRIP2
        self.has_x2 = not self.has_walls
        if self.has_walls:
            if n3 < 5:
                raise FieldError(f"n3 must be >= 5 for wall closures, got {n3}")
            self.n2, self.n3 = 1, int(n3)
            self.shape = (self.n3, self.n1)
            self.hshape = (self.n1,)
            self.volume = 2.0
        else:
            if not _is_pow2(n2):
                raise FieldError(f"n2 must be a power of two >= 4, got {n2}")
            self.n2, self.n3 = int(n2), 1
            self.shape = self.hshape = (self.n2, self.n1)
            self.volume = 4.0

        self.dx1 = 2.0 / self.n1
        self.dx2 = 2.0 / self.n2 if self.has_x2 else None
        self.dx3 = 1.0 / (self.n3 - 1) if self.has_walls else None

        self.x1 = -1.0 + self.dx1 * np.arange(self.n1)
        self.x2 = -1.0 + self.dx2 * np.arange(self.n2) if self.has_x2 else None
        self.x3 = np.linspace(0.0, 1.0, self.n3) if self.has_walls else None

        # trapezoidal quadrature weights over (0, 1), sum exactly 1, and the
        # eigenvalues of -d2/dx3^2 with homogeneous Dirichlet walls on the
        # interior sine modes j = 1 .. n3 - 2 (:func:`sine_modes`)
        if self.has_walls:
            w = np.full(self.n3, self.dx3)
            w[0] = w[-1] = 0.5 * self.dx3
            self.w3 = w
            j = np.arange(1, self.n3 - 1)
            self.lam3 = (2.0 / self.dx3 ** 2) * (1.0 - np.cos(np.pi * j / (self.n3 - 1)))
        else:
            self.w3 = self.lam3 = None

        # spectral machinery: wavenumbers pi*m on a period-2 direction
        n1r = self.n1 // 2 + 1
        self.k1r = np.pi * np.arange(n1r).astype(float)
        self.k1r_d = self.k1r.copy()
        self.k1r_d[-1] = 0.0  # odd derivative of the Nyquist mode is dropped
        m1 = np.arange(n1r)
        self.n1_kept = self.n1 // 3 + 1  # the 2/3 rule keeps the x1 modes below
        keep1 = m1 < self.n1_kept
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
        if self.has_walls:
            return {"x1": self.x1[None, :], "x3": self.x3[:, None]}
        return {"x1": self.x1[None, :], "x2": self.x2[:, None]}


# -- raw array helpers (axis conventions: x3 = axis 0 on strips, x2 = -2, x1 = -1)


def hfft(data: np.ndarray, grid: Grid, x2: bool = True) -> np.ndarray:
    """Real-to-complex horizontal transform: rfft on x1, and on the torus a
    full fft on x2 unless ``x2`` is false."""
    if grid.has_x2 and x2:
        return np.fft.rfftn(data, axes=(-2, -1))
    return np.fft.rfft(data, axis=-1)


def hifft(spec: np.ndarray, grid: Grid, out=None, x2: bool = True) -> np.ndarray:
    """Inverse of :func:`hfft` with the same ``x2``, written into ``out`` when
    given."""
    if grid.has_x2 and x2:
        return np.fft.irfftn(spec, s=(grid.n2, grid.n1), axes=(-2, -1), out=out)
    return np.fft.irfft(spec, n=grid.n1, axis=-1, out=out)


def ddx1_arr(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral d/dx1 along the last axis, through the x1 transform alone."""
    spec = hfft(data, grid, x2=False)
    spec *= 1j * grid.k1r_d
    return hifft(spec, grid, x2=False)


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
    out = np.empty_like(data, order="C")
    np.subtract(data[2:], data[:-2], out=out[1:-1])
    out[0] = -3.0 * data[0] + 4.0 * data[1] - data[2]
    out[-1] = 3.0 * data[-1] - 4.0 * data[-2] + data[-3]
    real = out.view(out.real.dtype)  # a spectrum's real view: a complex division's values
    real /= 2.0 * grid.dx3
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


def _odd_fft(rows: np.ndarray, inverse: bool = False) -> np.ndarray:
    """FFT (or with ``inverse`` the inverse FFT) along axis 0 of the odd
    extension (0, rows, 0, -rows reversed) of the n - 1 interior rows of a
    strip, kept at the sine modes j = 1 .. n - 1.

    The forward transform is -2i sum_i rows[i - 1] sin(pi j i / n); the
    inverse undoes it.  The sine modes diagonalize the Dirichlet second
    difference (Hockney's fast direct solver, J. ACM 1965)."""
    n = rows.shape[0] + 1
    ext = np.empty((2 * n,) + rows.shape[1:], dtype=complex)
    ext[0] = ext[n] = 0.0
    ext[1:n] = rows
    np.negative(rows[::-1], out=ext[n + 1:])
    transform = np.fft.ifft if inverse else np.fft.fft
    return transform(ext, axis=0, out=ext)[1:n]


def sine_modes(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Fourier-sine spectrum of the interior rows of a strip array (its wall
    rows are not read): x1 Fourier modes times x3 sine modes, shape
    (n3 - 2, n1 // 2 + 1).  The Laplacian with homogeneous Dirichlet walls
    is diagonal here, with eigenvalues -(ksq + lam3)."""
    return _odd_fft(np.fft.rfft(data[1:-1], axis=-1))


def from_sine_modes(modes: np.ndarray, bottom, top, grid: Grid) -> np.ndarray:
    """Inverse of :func:`sine_modes`: the strip array whose interior rows have
    the spectrum ``modes`` and whose wall rows are ``bottom`` and ``top``."""
    out = np.empty(grid.shape)
    np.fft.irfft(_odd_fft(modes, inverse=True), n=grid.n1, axis=-1, out=out[1:-1])
    out[0] = bottom
    out[-1] = top
    return out


def helmholtz_solve_column(rhs: np.ndarray, bottom: float, top: float, c: float,
                           grid: Grid) -> np.ndarray:
    """Solve (I - c d2/dx3^2) x = rhs for one column of n3 values with the
    centered second difference on interior rows and x = bottom at x3 = 0,
    x = top at x3 = 1 (the wall entries of rhs are not read).  This is the
    horizontal-mean mode of the strip solve in :func:`sine_modes`: given the
    x1-mean column of a strip right side and the x1 means of its walls, it
    returns the x1-mean column of that strip's solution."""
    h2 = grid.dx3 ** 2
    inner = rhs[1:-1].copy()
    inner[0] += (c / h2) * bottom
    inner[-1] += (c / h2) * top
    modes = _odd_fft(inner)
    modes /= 1.0 + c * grid.lam3
    out = np.empty(grid.n3)
    out[1:-1] = _odd_fft(modes, inverse=True).real
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


def cross3(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Cross product of (3, ...) arrays along the leading axis, into ``out``."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape)) if out is None else out
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(a[j] * b[k], a[k] * b[j], out=out[i])
    return out


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
    """Read a snapshot; returns (grid, dict of named arrays).  The bytes after
    the header must be whole fields of its shape, checked before the grid is
    built; a malformed file raises :class:`SnapshotFormatError`."""
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
        count = n3 * n1 if geometry is Geometry.STRIP2 else n2 * n1
        size = os.fstat(fh.fileno()).st_size - len(head)
        if size % (8 + 8 * count):
            raise SnapshotFormatError(
                f"{size} bytes after the header are not whole fields of {count} values")
        try:
            grid = Grid(geometry, n1, n2, n3)
        except FieldError as exc:
            raise SnapshotFormatError(f"bad grid in header: {exc}") from exc
        fields = {}
        for _ in range(size // (8 + 8 * count)):
            name_raw = fh.read(8)
            if not name_raw.isascii():
                raise SnapshotFormatError(f"field name {name_raw!r} is not ASCII")
            payload = fh.read(8 * count)
            fields[name_raw.decode("ascii").rstrip()] = \
                np.frombuffer(payload, dtype="<f8").reshape(grid.shape).copy()
        return grid, fields

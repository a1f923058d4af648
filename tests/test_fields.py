"""Tests for grids, discrete operators, and snapshot I/O."""

import os
import struct
import tempfile

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from obmlab.fields import (
    FieldError,
    Geometry,
    Grid,
    SnapshotFormatError,
    cross3,
    d2dx3_arr,
    ddx1_arr,
    ddx2_arr,
    ddx3_arr,
    dealias_arr,
    from_sine_modes,
    helmholtz_solve_column,
    l2_arr,
    lap_h_arr,
    leray_arr,
    mean_arr,
    read_snapshot,
    sine_modes,
    wall_flux_arr,
    write_snapshot,
)


def strip2(n1=64, n3=65):
    return Grid(Geometry.STRIP2, n1, n3=n3)


def torus2(n1=64, n2=64):
    return Grid(Geometry.TORUS2, n1, n2)


# vector calculus composed from the array operators the solvers call; the
# derivative along a direction a geometry lacks is identically zero


def d(i, data, g):
    return (ddx1_arr, ddx2_arr, ddx3_arr)[i](data, g)


def grad(f, g):
    return np.stack([d(i, f, g) for i in range(3)])


def div(v, g):
    return sum(d(i, v[i], g) for i in range(len(v)))


def curl(v, g):
    return np.stack([d(1, v[2], g) - d(2, v[1], g),
                     d(2, v[0], g) - d(0, v[2], g),
                     d(0, v[1], g) - d(1, v[0], g)])


def laplacian(f, g):
    return lap_h_arr(f, g) + d2dx3_arr(f, g)


def lorentz_force(B, g):
    """curl(B) x B with 2/3-dealiased products."""
    J = np.stack([dealias_arr(c, g) for c in curl(B, g)])
    Bd = np.stack([dealias_arr(c, g) for c in B])
    return np.stack([dealias_arr(c, g) for c in cross3(J, Bd)])


# -- grid construction ---------------------------------------------------


def test_grid_shapes_and_spacing():
    g = strip2(32, 17)
    assert g.shape == (17, 32)
    assert g.dx1 == 2.0 / 32
    assert g.dx3 == 1.0 / 16
    assert g.x1[0] == -1.0 and g.x1[-1] < 1.0
    assert g.x3[0] == 0.0 and g.x3[-1] == 1.0
    assert np.isclose(g.w3.sum(), 1.0)
    t = torus2(16, 8)
    assert t.shape == (8, 16)
    assert t.volume == 4.0
    assert [geom.value for geom in Geometry] == [0, 2]


def test_grid_validation():
    with pytest.raises(FieldError):
        Grid(Geometry.STRIP2, 48, n3=17)  # not a power of two
    with pytest.raises(FieldError):
        Grid(Geometry.STRIP2, 2, n3=17)
    with pytest.raises(FieldError):
        Grid(Geometry.STRIP2, 16, n3=4)
    with pytest.raises(FieldError):
        Grid(Geometry.TORUS2, 16, 12)
    # torus ignores n3, strip2 ignores n2
    assert Grid(Geometry.TORUS2, 16, 16, n3=99).n3 == 1
    assert Grid(Geometry.STRIP2, 16, n2=7, n3=9).n2 == 1


def test_grid_equality_and_hash():
    assert strip2(32, 17) == strip2(32, 17)
    assert strip2(32, 17) != strip2(32, 33)
    assert hash(torus2(16, 16)) == hash(torus2(16, 16))


# -- spectral derivatives -------------------------------------------------


def test_spectral_derivative_exact_per_mode():
    g = torus2(64, 64)
    c = g.coords()
    for k in (1, 2, 5, 13, 21):  # 21 = 64 // 3, last retained mode band
        f = np.sin(np.pi * k * c["x1"]) * np.ones_like(c["x2"])
        want = np.pi * k * np.cos(np.pi * k * c["x1"]) * np.ones_like(c["x2"])
        got = ddx1_arr(f, g)
        assert np.max(np.abs(got - want)) < 1e-10 * np.pi * k
        f2 = np.cos(np.pi * k * c["x2"]) * np.ones_like(c["x1"])
        want2 = -np.pi * k * np.sin(np.pi * k * c["x2"]) * np.ones_like(c["x1"])
        assert np.max(np.abs(ddx2_arr(f2, g) - want2)) < 1e-10 * np.pi * k


def test_spectral_laplacian_eigenfunction():
    g = strip2(64, 9)
    c = g.coords()
    for k in (1, 4, 21):
        f = np.cos(np.pi * k * c["x1"]) * np.ones_like(c["x3"])
        lam = (np.pi * k) ** 2
        err = np.max(np.abs(laplacian(f, g) + lam * f))
        assert err < 1e-10 * lam


def test_operator_linearity():
    rng = np.random.default_rng(7)
    g = strip2(32, 17)
    a = rng.standard_normal(g.shape)
    b = rng.standard_normal(g.shape)
    for op in (lambda x: ddx1_arr(x, g), lambda x: ddx3_arr(x, g),
               lambda x: d2dx3_arr(x, g), lambda x: dealias_arr(x, g)):
        lhs = op(2.0 * a - 3.0 * b)
        rhs = 2.0 * op(a) - 3.0 * op(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_dealias_band_edges():
    g = torus2(64, 64)
    c = g.coords()
    keep = np.cos(np.pi * (64 // 3) * c["x1"]) * np.ones_like(c["x2"])
    kill = np.cos(np.pi * (64 // 3 + 1) * c["x1"]) * np.ones_like(c["x2"])
    assert np.max(np.abs(dealias_arr(keep, g) - keep)) < 1e-12
    assert np.max(np.abs(dealias_arr(kill, g))) < 1e-12


# -- vertical differences --------------------------------------------------


def vertical_error(n3, second=False):
    g = strip2(8, n3)
    f = np.cos(np.pi * g.x3)[:, None] * np.ones(8)[None, :]
    if second:
        want = -(np.pi ** 2) * f
        got = d2dx3_arr(f, g)
    else:
        want = -np.pi * np.sin(np.pi * g.x3)[:, None] * np.ones(8)[None, :]
        got = ddx3_arr(f, g)
    return np.max(np.abs(got - want))


@pytest.mark.parametrize("second", [False, True])
def test_vertical_second_order(second):
    e_coarse = vertical_error(33, second)
    e_fine = vertical_error(65, second)
    ratio = e_coarse / e_fine
    assert 3.7 < ratio < 4.3


def test_vertical_exact_on_quadratic():
    g = strip2(8, 21)
    f = (g.x3 ** 2)[:, None] * np.ones(8)[None, :]
    assert np.max(np.abs(ddx3_arr(f, g) - 2.0 * g.x3[:, None])) < 1e-12
    assert np.max(np.abs(d2dx3_arr(f, g) - 2.0)) < 1e-11


# -- implicit vertical solve -------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(n1=st.sampled_from([4, 8, 16, 64]), n3=st.integers(5, 65),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sine_modes_invert_ignore_walls_and_diagonalize_property(n1, n3, seed):
    """from_sine_modes inverts sine_modes on the interior rows and sets the
    walls; the wall rows are never read; and with zero walls the spectral
    plus second-difference Laplacian is -(ksq + lam3) mode by mode."""
    g = strip2(n1, n3)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(g.shape)
    bottom, top = rng.standard_normal(g.hshape), rng.standard_normal(g.hshape)
    modes = sine_modes(x, g)
    assert modes.shape == (n3 - 2, n1 // 2 + 1)
    back = from_sine_modes(modes, bottom, top, g)
    assert np.max(np.abs(back[1:-1] - x[1:-1])) <= 1e-13 * np.max(np.abs(x))
    assert np.array_equal(back[0], bottom) and np.array_equal(back[-1], top)
    x[0], x[-1] = bottom, top
    assert np.array_equal(sine_modes(x, g), modes)
    x[0] = x[-1] = 0.0
    lap = sine_modes(lap_h_arr(x, g) + d2dx3_arr(x, g), g)
    want = -(g.ksq[None, :] + g.lam3[:, None]) * modes
    assert np.max(np.abs(lap - want)) <= 1e-11 * np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(n1=st.sampled_from([4, 8, 16, 64, 256]), n3=st.integers(5, 129),
       log_c=st.floats(-6.0, 2.0), seed=st.integers(0, 2 ** 32 - 1))
def test_helmholtz_column_is_the_mean_of_the_strip_solve_property(n1, n3, log_c, seed):
    """The column solve of the x1 means of a right side and of non-uniform
    walls is the x1 mean of the strip solve in the Fourier-sine modes, to
    1e-13 of its size."""
    g = strip2(n1, n3)
    c = 10.0 ** log_c
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(g.shape)
    bottom, top = rng.standard_normal(g.hshape), rng.standard_normal(g.hshape)
    lifted = rhs.copy()
    lifted[1] += (c / g.dx3 ** 2) * bottom
    lifted[-2] += (c / g.dx3 ** 2) * top
    modes = sine_modes(lifted, g) / (1.0 + c * (g.ksq[None, :] + g.lam3[:, None]))
    want = from_sine_modes(modes, bottom, top, g).mean(axis=-1)
    got = helmholtz_solve_column(rhs.mean(axis=-1), bottom.mean(), top.mean(), c, g)
    assert got.shape == (n3,)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# -- vector calculus identities --------------------------------------------


@pytest.mark.parametrize("make", [strip2, torus2])
def test_div_curl_is_machine_zero(make):
    rng = np.random.default_rng(11)
    g = make()
    v = rng.standard_normal((3,) + g.shape)
    r = div(curl(v, g), g)
    # operators act along distinct axes, so the mixed partials commute exactly
    assert np.max(np.abs(r)) < 1e-8


def test_curl_gradient_is_machine_zero():
    rng = np.random.default_rng(12)
    g = strip2(32, 33)
    f = rng.standard_normal(g.shape)
    r = curl(grad(f, g), g)
    assert np.max(np.abs(r)) < 1e-8


def test_grad_components_strip2():
    g = strip2(32, 33)
    c = g.coords()
    f = np.sin(np.pi * c["x1"]) * (c["x3"] ** 2)
    gf = grad(f, g)
    assert np.max(np.abs(gf[1])) == 0.0  # no x2 variation on the slice
    want3 = np.sin(np.pi * c["x1"]) * 2.0 * c["x3"]
    assert np.max(np.abs(gf[2] - want3)) < 1e-10


def test_divergence_of_gradient_matches_laplacian():
    g = strip2(8, 9)
    c = g.coords()
    # both vertical routes (D3 twice, direct second difference) are exact on
    # quadratics, so the two operator compositions agree to rounding here
    f = (c["x3"] ** 2) * np.cos(np.pi * c["x1"])
    a = div(grad(f, g), g)
    b = laplacian(f, g)
    assert np.max(np.abs(a - b)) < 1e-9


# -- Leray projection -------------------------------------------------------


def test_leray_divergence_free_and_idempotent():
    rng = np.random.default_rng(21)
    g = torus2(64, 64)
    v = rng.standard_normal((2,) + g.shape)
    p = leray_arr(v, g)
    assert np.max(np.abs(div(p, g))) < 1e-10
    pp = leray_arr(p, g)
    assert np.max(np.abs(pp - p)) < 1e-12


def test_leray_annihilates_gradients_and_keeps_solenoidal():
    rng = np.random.default_rng(22)
    g = torus2(64, 64)
    c = g.coords()
    f = dealias_arr(rng.standard_normal(g.shape), g)
    gp = leray_arr(grad(f, g)[:2], g)
    assert np.max(np.abs(gp)) < 1e-10
    # stream-function field is already divergence free
    psi = np.sin(np.pi * c["x1"]) * np.cos(2 * np.pi * c["x2"])
    w = np.stack([ddx2_arr(psi, g), -ddx1_arr(psi, g)])
    pw = leray_arr(w, g)
    assert np.max(np.abs(pw - w)) < 1e-12


def test_leray_preserves_mean():
    rng = np.random.default_rng(23)
    g = torus2(32, 32)
    v = rng.standard_normal((2,) + g.shape) + np.array([0.7, -0.4])[:, None, None]
    p = leray_arr(v, g)
    assert np.isclose(p[0].mean(), v[0].mean(), atol=1e-13)
    assert np.isclose(p[1].mean(), v[1].mean(), atol=1e-13)


# -- Lorentz force gradient structure ---------------------------------------


def test_vertical_magnetic_lorentz_force_is_a_gradient():
    """For B = b(x1, x2) e3 the force curl(B) x B equals -grad(b^2/2)."""
    rng = np.random.default_rng(31)
    g = torus2(64, 64)
    b_bar = 0.5
    b1 = dealias_arr(rng.standard_normal(g.shape), g)
    b1 *= 0.3 / np.max(np.abs(b1))
    B = np.stack([np.zeros(g.shape), np.zeros(g.shape), b_bar + b1])
    F = lorentz_force(B, g)
    q = dealias_arr(0.5 * (b_bar + b1) ** 2, g)
    want1 = -ddx1_arr(q, g)
    want2 = -ddx2_arr(q, g)
    assert np.max(np.abs(F[0] - want1)) < 1e-10
    assert np.max(np.abs(F[1] - want2)) < 1e-10
    assert np.max(np.abs(F[2])) < 1e-12
    # and the projection of a gradient vanishes
    proj = leray_arr(F[:2], g)
    assert np.max(np.abs(proj)) < 1e-10


def test_linearized_lorentz_force_matches_mean_field_gradient():
    g = torus2(64, 64)
    c = g.coords()
    b_bar = 0.5
    b1 = 0.25 * (np.cos(np.pi * c["x1"]) + 0.3 * np.sin(2 * np.pi * c["x2"]))
    b1 = b1 * np.ones(g.shape)
    Bmean = np.stack([np.zeros(g.shape), np.zeros(g.shape), np.full(g.shape, b_bar)])
    Bp = np.stack([np.zeros(g.shape), np.zeros(g.shape), b1])
    # bilinear part: curl(b1 e3) x (b_bar e3) = -grad(b_bar * b1)
    F = cross3(curl(Bp, g), Bmean)
    assert np.max(np.abs(F[0] + b_bar * ddx1_arr(b1, g))) < 1e-10
    assert np.max(np.abs(F[1] + b_bar * ddx2_arr(b1, g))) < 1e-10


# -- means and fluxes --------------------------------------------------------


def test_mean_exact_cases():
    g = strip2(32, 33)
    c = g.coords()
    assert mean_arr(np.ones(g.shape), g) == pytest.approx(1.0, abs=1e-15)
    # trapezoid is exact on linears; the spectral mean kills cos exactly
    f = (2.0 * c["x3"] - 1.0) * np.ones_like(c["x1"])
    assert mean_arr(f, g) == pytest.approx(0.0, abs=1e-14)
    f2 = np.cos(np.pi * c["x1"]) * np.ones_like(c["x3"])
    assert mean_arr(f2, g) == pytest.approx(0.0, abs=1e-14)
    t = torus2(16, 16)
    assert mean_arr(np.full(t.shape, 2.5), t) == pytest.approx(2.5)


def test_mean_quadratic_trapezoid_error():
    g = strip2(8, 65)
    f = (g.x3 ** 2)[:, None] * np.ones(8)[None, :]
    assert abs(mean_arr(f, g) - 1.0 / 3.0) < 1e-4


def test_mean_laplacian_flux_quadratic():
    g = strip2(16, 33)
    f = (g.x3 ** 2)[:, None] * np.ones(16)[None, :]
    # laplacian of x3^2 is 2; the one-sided stencils are exact on quadratics
    assert wall_flux_arr(f, g) == pytest.approx(2.0, abs=1e-11)


def test_mean_laplacian_matches_wall_flux():
    """Divergence theorem: mean(lap f) equals the boundary flux discretely."""
    rng = np.random.default_rng(33)
    g = strip2(64, 65)
    c = g.coords()
    f = np.sin(np.pi * c["x3"]) * (1 + 0.5 * np.cos(np.pi * c["x1"])) + 0.2 * c["x3"] ** 3
    assert abs(mean_arr(laplacian(f, g), g) - wall_flux_arr(f, g)) < 1e-6
    # the flux stencil telescopes against the trapezoid rule, so the identity
    # holds to rounding even on rough data
    noisy = rng.standard_normal(g.shape)
    lap = laplacian(noisy, g)
    lap_scale = np.max(np.abs(lap))
    assert abs(mean_arr(lap, g) - wall_flux_arr(noisy, g)) < 1e-12 * lap_scale


# -- snapshots ----------------------------------------------------------------


def test_snapshot_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(41)
    g = strip2(16, 9)
    fields = {"theta": rng.standard_normal(g.shape),
              "u1": rng.standard_normal(g.shape),
              "b2": rng.standard_normal(g.shape)}
    path = tmp_path / "state.snap"
    write_snapshot(path, g, fields)
    g2, loaded = read_snapshot(path)
    assert g2 == g
    assert list(loaded) == ["theta", "u1", "b2"]
    for name in fields:
        assert np.array_equal(loaded[name], fields[name])


def test_snapshot_round_trip_torus(tmp_path):
    rng = np.random.default_rng(42)
    g = torus2(8, 8)
    path = tmp_path / "t.snap"
    write_snapshot(path, g, {"U1": rng.standard_normal(g.shape)})
    g2, loaded = read_snapshot(path)
    assert g2.geometry is Geometry.TORUS2
    assert np.array_equal(loaded["U1"], loaded["U1"])


def test_snapshot_errors(tmp_path):
    g = strip2(8, 5)
    path = tmp_path / "bad.snap"
    with pytest.raises(SnapshotFormatError):
        write_snapshot(path, g, {"waytoolongname": np.zeros(g.shape)})
    with pytest.raises(SnapshotFormatError):
        write_snapshot(path, g, {"ok": np.zeros((3, 3))})
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)
    write_snapshot(path, g, {"f": np.zeros(g.shape)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])  # truncate the payload
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


@settings(max_examples=30, deadline=None)
@given(geometry=st.sampled_from(list(Geometry)),
       n1=st.sampled_from([4, 8, 16]), n2=st.sampled_from([4, 8]),
       n3=st.integers(5, 11), seed=st.integers(0, 2 ** 32 - 1),
       names=st.lists(st.text(st.characters(max_codepoint=127), max_size=8)
                      .filter(lambda s: s == s.rstrip()),
                      max_size=4, unique=True))
def test_snapshot_round_trip_property(geometry, n1, n2, n3, seed, names):
    g = Grid(geometry, n1, n2, n3)
    rng = np.random.default_rng(seed)
    fields = {name: rng.standard_normal(g.shape) * 10.0 ** rng.integers(-300, 300)
              for name in names}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.snap")
        write_snapshot(path, g, fields)
        g2, loaded = read_snapshot(path)
        assert os.listdir(tmp) == ["state.snap"]
    assert g2 == g
    assert list(loaded) == names
    for name in names:
        assert loaded[name].tobytes() == fields[name].tobytes()


def _header(geom, n1, n2, n3):
    return struct.pack("<4sIIIII", b"OBMQ", 1, geom, n1, n2, n3)


@settings(max_examples=200, deadline=None)
@example(geom=0, n1=3, n2=1, n3=9, n_fields=1, extra=0, name=b"f       ")
@example(geom=0, n1=8, n2=1, n3=3, n_fields=1, extra=0, name=b"f       ")
@given(geom=st.integers(0, 3), n1=st.integers(0, 20), n2=st.integers(0, 20),
       n3=st.integers(0, 20), n_fields=st.integers(0, 2), extra=st.integers(-9, 9),
       name=st.binary(min_size=8, max_size=8))
def test_snapshot_header_property(tmp_path_factory, geom, n1, n2, n3, n_fields,
                                  extra, name):
    """Small random header integers, followed by n_fields records of the size
    the header names (or none for an unknown geometry tag) and ``extra``
    bytes more or fewer, read back as the grid the header names or raise
    SnapshotFormatError, never another error."""
    count = {0: n3 * n1, 2: n2 * n1}.get(geom, 0)
    payload = (name + bytes(8 * count)) * n_fields
    payload = payload + bytes(extra) if extra >= 0 else payload[:extra]
    path = tmp_path_factory.mktemp("snap") / "h.snap"
    path.write_bytes(_header(geom, n1, n2, n3) + payload)
    try:
        grid, fields = read_snapshot(path)
    except SnapshotFormatError:
        return
    assert extra == 0 or (extra < 0 and n_fields == 0)
    assert grid == Grid(Geometry(geom), n1, n2, n3)
    assert len(fields) == min(n_fields, 1)
    assert all(f.shape == grid.shape and not f.any() for f in fields.values())


@pytest.mark.parametrize("geom, n1, n2, n3", [
    (0, 8, 1, 2 ** 32 - 1), (0, 2 ** 31, 1, 9), (1, 8, 2 ** 31, 9), (2, 2 ** 31, 8, 1),
])
def test_snapshot_rejects_huge_header_counts(tmp_path, geom, n1, n2, n3):
    """One field of an 8x9 grid under a header whose grid is far larger:
    SnapshotFormatError from the file size, before any grid array is made."""
    path = tmp_path / "h.snap"
    path.write_bytes(_header(geom, n1, n2, n3) + b"f       " + bytes(8 * 72))
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


@pytest.mark.parametrize("bad", [
    {"ok": None, "théta": None},          # not ASCII
    {"ok": None, "waytoolongname": None},      # second name over 8 bytes
    {"ok": None, "pad  ": None},               # the reader strips trailing blanks
    {"ok": None, "f": np.zeros((3, 3))},       # wrong shape after a good field
])
def test_snapshot_bad_input_leaves_no_file(tmp_path, bad):
    g = strip2(8, 5)
    fields = {k: np.zeros(g.shape) if v is None else v for k, v in bad.items()}
    path = tmp_path / "s.snap"
    with pytest.raises(SnapshotFormatError):
        write_snapshot(path, g, fields)
    assert list(tmp_path.iterdir()) == []
    # an existing snapshot is left exactly as it was
    write_snapshot(path, g, {"f": np.ones(g.shape)})
    before = path.read_bytes()
    with pytest.raises(SnapshotFormatError):
        write_snapshot(path, g, fields)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


# -- L2 norm ---------------------------------------------------------------------


def test_l2_arr_strip_horizontal_and_components():
    g = strip2(16, 17)
    vol = g.volume
    assert l2_arr(np.ones(g.shape), g) == pytest.approx(np.sqrt(vol), rel=1e-14)
    # leading component axes are summed: |(1, 2)|^2 = 5
    v = np.stack([np.ones(g.shape), np.full(g.shape, 2.0)])
    assert l2_arr(v, g) == pytest.approx(np.sqrt(5.0 * vol), rel=1e-14)
    # horizontal arrays average over x1 alone; cos^2 averages to 1/2
    b = np.cos(np.pi * g.x1)
    assert l2_arr(b, g) == pytest.approx(np.sqrt(0.5 * vol), rel=1e-14)
    assert l2_arr(np.stack([b, b]), g) == pytest.approx(np.sqrt(vol), rel=1e-14)
    # the trapezoid rule weights the walls by one half
    f = np.zeros(g.shape)
    f[0] = 1.0
    assert l2_arr(f, g) == pytest.approx(np.sqrt(vol * 0.5 * g.dx3), rel=1e-14)
    t = torus2(8, 8)
    assert l2_arr(np.full((3, 3) + t.shape, 2.0), t) == pytest.approx(
        np.sqrt(36.0 * t.volume), rel=1e-14)

"""Tests for the 2.5D primitive magneto-fluid solver."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from obmlab import mhd, obm, thermo
from obmlab.fields import (
    FieldError,
    Geometry,
    Grid,
    ddx1_arr,
    ddx3_arr,
    l2_arr,
    mean_arr,
)
from obmlab.mhd import (
    CflError,
    PositivityError,
    PrimConfig,
    PrimitiveState,
    _cfl_limit,
    _dissipation,
    _row,
    _state_work,
    _step_prim,
    _strain,
    _tendencies,
    a_from_b3_profile,
    cfl_limits,
    entropy_production_terms,
    fix_flux_walls,
    psi_extension,
    run_prim,
    step_prim,
)
from obmlab.relent import well_prepared_data

import tendencies_oracle as oracle
from malformed import BAD, malformed

GAS = thermo.GasParams(p_inf=1.0, a=0.0)
REF = thermo.ReferenceState(rho_bar=1.0, theta_bar=1.0, b_bar=0.5)


def make_cfg(n1=16, n3=9, G=None, theta_B=(0.0, 0.0), ref=REF, gas=GAS):
    grid = Grid(Geometry.STRIP2, n1, n3=n3)
    if G is None:
        G = np.zeros(grid.shape)
    elif G == "gravity":
        G = np.broadcast_to(0.5 - grid.x3[:, None], grid.shape).copy()
    return PrimConfig(grid, gas, ref, G, theta_B)


def uniform_state(cfg, eps=0.5, u1=0.0):
    g = cfg.grid
    u = np.zeros((3,) + g.shape)
    u[0] = u1
    return PrimitiveState(
        g, np.full(g.shape, REF.rho_bar), u, np.full(g.shape, REF.theta_bar),
        np.zeros(g.shape), REF.b_bar, np.zeros(g.shape), eps, 0.0)


def wavy_state(cfg, eps=0.5, amp=0.05, with_u2=False):
    """Smooth wall-compatible data with full in-plane structure."""
    g = cfg.grid
    x1 = g.x1[None, :]
    x3 = g.x3[:, None]
    rho = REF.rho_bar + amp * np.sin(np.pi * x3) * np.cos(np.pi * x1)
    theta = REF.theta_bar + amp * np.sin(np.pi * x3) * (1 + 0.5 * np.cos(np.pi * x1))
    u = np.zeros((3,) + g.shape)
    u[0] = 0.1 * np.cos(np.pi * x1) * np.cos(np.pi * x3)
    u[2] = 0.1 * np.sin(np.pi * x1) * np.sin(np.pi * x3)
    if with_u2:
        u[1] = 0.1 * np.sin(np.pi * x1) * np.sin(np.pi * x3)
    a = fix_flux_walls(0.02 * np.cos(np.pi * x1) * np.cos(np.pi * x3))
    return PrimitiveState(g, rho, u, theta, a, REF.b_bar,
                          np.zeros(g.shape), eps, 0.0)


def random_state(cfg, eps, seed):
    """Admissible state with random values at every node (all x1 modes)."""
    g = cfg.grid
    rng = np.random.default_rng(seed)
    return PrimitiveState(
        g, 1.0 + 0.3 * rng.uniform(-1, 1, g.shape),
        0.1 * rng.normal(size=(3,) + g.shape),
        1.0 + 0.3 * rng.uniform(-1, 1, g.shape),
        fix_flux_walls(0.02 * rng.normal(size=g.shape)), REF.b_bar,
        0.05 * rng.normal(size=g.shape), eps, 0.0)


def strain(theta, d1u, d3u, gas):
    """(mu, div u, D) as the state's work holds them."""
    return (thermo.mu(theta, gas),) + _strain(d1u, d3u)


def viscous_stress(theta, d1u, d3u, gas):
    """The full 3x3 stress S = mu D from the solver's strain entries, with
    D22 = -(2/3) div u, which it never forms, added here."""
    mu, divu, D = strain(theta, d1u, d3u, gas)
    S11, S12, S13, S23, S33 = (mu * entry for entry in D)
    S22 = mu * (-(2.0 / 3.0) * divu)
    return np.array([[S11, S12, S13], [S12, S22, S23], [S13, S23, S33]])


# the (i, j) of the strain and stress entries the solver forms, in its order
ENTRIES = ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2))


# -- viscous stress --------------------------------------------------------


def test_stress_zero_gradient():
    S = viscous_stress(np.array(1.3), np.zeros(3), np.zeros(3), GAS)
    assert np.all(S == 0.0)


def test_stress_simple_shear():
    # u = (x3, 0, 0): only d3 u1 = 1 is nonzero
    d3u = np.array([1.0, 0.0, 0.0])
    theta = np.array(1.3)
    S = viscous_stress(theta, np.zeros(3), d3u, GAS)
    mu = thermo.mu(1.3, GAS)
    assert S[0, 2] == pytest.approx(mu, rel=1e-14)
    assert S[2, 0] == pytest.approx(mu, rel=1e-14)
    off = [(i, j) for i in range(3) for j in range(3) if (i, j) not in ((0, 2), (2, 0))]
    for i, j in off:
        assert abs(S[i, j]) < 1e-15


def test_stress_trace_is_pure_bulk():
    rng = np.random.default_rng(7)
    d1u, d3u = rng.normal(size=(2, 3))
    theta = np.array(0.9)
    S0 = viscous_stress(theta, d1u, d3u, GAS)
    assert abs(S0[0, 0] + S0[1, 1] + S0[2, 2]) < 1e-12


def test_velocity_gradient_slip_rows():
    """The state's work holds the two nonzero rows of grad u, with the wall
    rows of d3 u1 and d3 u2 zeroed."""
    cfg = make_cfg()
    st = wavy_state(cfg, with_u2=True)
    w = _state_work(st, cfg)
    assert w.d1u.shape == w.d3u.shape == st.u.shape
    assert np.all(w.d3u[0, 0] == 0.0) and np.all(w.d3u[0, -1] == 0.0)
    assert np.all(w.d3u[1, 0] == 0.0) and np.all(w.d3u[1, -1] == 0.0)
    # every other entry is the plain derivative, d3 u3 at the walls included
    for j in range(3):
        assert np.array_equal(w.d1u[j], ddx1_arr(st.u[j], cfg.grid))
        rows = slice(None) if j == 2 else slice(1, -1)
        assert np.array_equal(w.d3u[j, rows], ddx3_arr(st.u[j], cfg.grid)[rows])


@settings(max_examples=40, deadline=None)
@given(seed=hst.integers(0, 2 ** 32 - 1))
def test_strain_stress_and_dissipation_match_the_full_3x3_forms(seed):
    """On random gradients with a zero d2 row, the 2.5D strain, the stress
    entries mu D and the dissipation equal the oracle's 3x3 forms with a
    zero bulk viscosity to 1e-14 relative."""
    rng = np.random.default_rng(seed)
    d1u, d3u = rng.normal(size=(2, 3, 7))
    mu = thermo.mu(1.0 + 0.3 * rng.uniform(-1, 1, 7), GAS)
    eta = np.zeros(7)
    divu_3, D_3 = oracle.strain(np.stack([d1u, np.zeros_like(d1u), d3u]))
    phi_3 = oracle.dissipation(mu, eta, divu_3, D_3)
    S_3 = oracle.stress(mu, eta, divu_3, D_3.copy())

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    divu, D = _strain(d1u, d3u)
    close(divu, divu_3)
    close(-(2.0 / 3.0) * divu, D_3[1, 1])
    for got, (i, j) in zip(D, ENTRIES):
        close(got, D_3[i, j])
        close(got, D_3[j, i])
        close(mu * got, S_3[i, j])
        close(mu * got, S_3[j, i])
    close(_dissipation(mu, divu, D), phi_3)


# -- right side: one 2/3-rule truncation per sum of products ------------------


def assert_band_limited(arr):
    """No x1 mode of ``arr`` above n1 // 3, to 1e-12 max(1, max|arr|)."""
    n1 = arr.shape[-1]
    amplitude = np.abs(np.fft.rfft(arr, axis=-1)) * (2.0 / n1)
    tail = amplitude[..., n1 // 3 + 1:]
    assert np.max(tail) <= 1e-12 * max(1.0, np.max(np.abs(arr)))


@settings(max_examples=40, deadline=None)
@given(n1=hst.sampled_from([8, 16, 32]), n3=hst.integers(5, 17),
       eps=hst.floats(0.1, 1.0), seed=hst.integers(0, 2 ** 32 - 1))
def test_tendencies_are_band_limited(n1, n3, eps, seed):
    """Every tendency, including those left untruncated because they are
    linear images of truncated arrays, has no x1 mode above n1 // 3."""
    cfg = make_cfg(n1=n1, n3=n3)
    st = random_state(cfg, eps, seed)
    for rate in _tendencies(st, cfg, _state_work(st, cfg)):
        assert_band_limited(rate)


@settings(max_examples=40, deadline=None)
@given(n1=hst.sampled_from([8, 16, 32]), n3=hst.integers(5, 17),
       eps=hst.floats(0.1, 1.0), seed=hst.integers(0, 2 ** 32 - 1))
def test_tendencies_match_the_physical_space_oracle(n1, n3, eps, seed):
    """The pseudo-spectral right side equals the physical-space one, which
    truncates each flux by a full round trip, to rounding.  rho, u and theta
    fill every x1 mode; a and B2 are band-limited, as every state's are."""
    cfg = make_cfg(n1=n1, n3=n3, G="gravity")
    st = random_state(cfg, eps, seed)
    got = _tendencies(st, cfg, _state_work(st, cfg))
    for new, old in zip(got, oracle.tendencies(st, cfg)):
        assert new.shape == old.shape
        assert np.max(np.abs(new - old)) <= 1e-12 * max(1.0, np.max(np.abs(old)))


@settings(max_examples=30, deadline=None)
@given(n1=hst.sampled_from([8, 16, 32]), n3=hst.integers(5, 17),
       eps=hst.floats(0.1, 1.0), seed=hst.integers(0, 2 ** 32 - 1),
       forced=hst.booleans(), driver=hst.sampled_from(["step_prim", "run_prim"]))
def test_drivers_keep_the_magnetic_state_band_limited(n1, n3, eps, seed, forced,
                                                      driver):
    """From a and B2 filling every x1 mode, with or without a and B2 sources
    filling every mode, both drivers return a, B2 and B without modes above
    n1 // 3."""
    cfg = make_cfg(n1=n1, n3=n3)
    st = random_state(cfg, eps, seed)
    rng = np.random.default_rng(seed)
    extra = {"a": 0.1 * rng.normal(size=st.a.shape),
             "B2": 0.1 * rng.normal(size=st.a.shape)}
    src = (lambda _t: extra) if forced else None
    dt = 0.25 * cfl_limits(st, cfg)
    if driver == "step_prim":
        out = step_prim(st, cfg, dt, src)
    else:
        out, rows = run_prim(st, cfg, t_end=2 * dt, dt=dt, src=src)
        assert len(rows) == 2
    for arr in (out.a, out.B2, out.B):
        assert_band_limited(arr)


@settings(max_examples=40, deadline=None)
@given(n1=hst.sampled_from([8, 16, 32, 64]), n3=hst.integers(5, 17),
       c3=hst.floats(-2.0, 2.0), seed=hst.integers(0, 2 ** 32 - 1))
def test_projection_keeps_the_wall_relation_and_mean_B3(n1, n3, c3, seed):
    """The constructor projects a and B2, given with every x1 mode filled,
    onto the modes up to n1 // 3; the wall relation of a that the input
    satisfied and the mean c3 of B3 survive, and a state rebuilt from its
    own fields is the same state to 1e-15."""
    cfg = make_cfg(n1=n1, n3=n3)
    g = cfg.grid
    rng = np.random.default_rng(seed)
    a = fix_flux_walls(0.05 * rng.normal(size=g.shape))
    B2 = 0.05 * rng.normal(size=g.shape)
    full = np.abs(np.fft.rfft(np.stack([a, B2]), axis=-1))[..., n1 // 3 + 1:]
    assert np.all(np.max(full, axis=(1, 2)) > 1e-3)  # the input fills the tail
    fields = (np.ones(g.shape), np.zeros((3,) + g.shape), np.ones(g.shape))
    st = PrimitiveState(g, *fields, a, c3, B2, 0.5, 0.0)
    for arr in (st.a, st.B2, st.B):
        assert_band_limited(arr)
    assert np.max(np.abs(st.a[0] - (4 * st.a[1] - st.a[2]) / 3)) < 1e-15
    assert np.max(np.abs(st.a[-1] - (4 * st.a[-2] - st.a[-3]) / 3)) < 1e-15
    assert mean_arr(st.B[2], g) == pytest.approx(c3, abs=1e-15)
    again = PrimitiveState(g, *fields, st.a, st.c3, st.B2, st.eps, st.t)
    assert np.max(np.abs(again.a - st.a)) <= 1e-15
    assert np.max(np.abs(again.B2 - st.B2)) <= 1e-15


@settings(max_examples=20, deadline=None)
@given(seed=hst.integers(0, 2 ** 32 - 1), radiative=hst.booleans())
def test_state_work_eos_and_transport_are_the_public_values(seed, radiative):
    gas = thermo.GasParams(p_inf=1.0, a=0.3 if radiative else 0.0)
    cfg = make_cfg(gas=gas)
    st = random_state(cfg, 0.3, seed)
    w = _state_work(st, cfg)
    rho, theta = st.rho, st.theta
    for got, fn in ((w.p, thermo.pressure), (w.dp_drho, thermo.dp_drho),
                    (w.dp_dtheta, thermo.dp_dtheta), (w.de_dtheta, thermo.de_dtheta)):
        assert np.array_equal(got, fn(rho, theta, gas))
    for got, fn in ((w.mu, thermo.mu), (w.kappa, thermo.kappa),
                    (w.zeta, thermo.zeta)):
        assert np.array_equal(got, fn(theta, gas))
    assert "eta" not in w._fields  # the model has no bulk viscosity
    assert np.array_equal(w.B, st.B)
    assert np.array_equal(w.rho_e, thermo.rho_e_total(rho, theta, gas))
    assert np.array_equal(w.rho_s, thermo.rho_s_total(rho, theta, gas))
    g = cfg.grid
    grad = oracle.velocity_gradient(st.u, g)
    assert np.array_equal(w.d1u, grad[0]) and np.array_equal(w.d3u, grad[2])
    divu, D = oracle.strain(grad)
    assert np.array_equal(w.divu, divu)
    for got, (i, j) in zip(w.D, ENTRIES):
        assert np.array_equal(got, D[i, j])
    assert np.allclose(w.phi, oracle.dissipation(w.mu, np.zeros_like(theta), divu, D),
                       rtol=1e-14, atol=0.0)
    assert np.array_equal(w.J, oracle.curl25(st.B, g))
    assert np.array_equal(w.d1th, ddx1_arr(theta, g))
    assert np.array_equal(w.d3th, ddx3_arr(theta, g))


def count_transformed_fields(monkeypatch):
    """Count the 2D fields numpy's FFTs transform: a call on a (k, n3, n1)
    array counts k, so batching transforms cannot lower the count."""
    calls = [0]
    for name in ("rfft", "irfft", "rfftn", "irfftn", "fft", "ifft"):
        def counted(a, *args, _fn=getattr(np.fft, name), **kwargs):
            calls[0] += int(np.prod(np.shape(a)[:-2]))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_fft_calls_per_tendency_and_step(monkeypatch):
    cfg = make_cfg()
    calls = count_transformed_fields(monkeypatch)
    st = random_state(cfg, 0.5, 3)
    assert calls[0] <= 4  # the constructor's projection: a and B2 there and back
    calls[0] = 0
    st.B  # assembled afresh on each read
    assert calls[0] <= 2
    calls[0] = 0
    dt = 0.5 * cfl_limits(st, cfg)
    assert calls[0] <= 2  # the EOS pass and B
    calls[0] = 0
    work = _state_work(st, cfg)
    assert calls[0] <= 14  # B, grad u, J and d1 theta
    calls[0] = 0
    _tendencies(st, cfg, work)
    assert calls[0] <= 26
    calls[0] = 0
    _step_prim(st, cfg, dt, _cfl_limit(st, work), None, _state_work(st, cfg))
    # three states' work, B included, and three right sides
    assert calls[0] <= 120
    calls[0] = 0
    step_prim(st, cfg, dt)
    assert calls[0] <= 120


def test_a_step_keeps_only_the_fields_it_still_reads():
    """The second run_prim step on 64x65, its row included, peaks at most 12
    fields above what is held when it starts: the state and its work.  The
    step consumes that work in its first stage; at the peak, the start of
    the second right side, the stage state (7 fields) and its work (28)
    stand in for it (31), next to the first products of the right side:
    about 8 fields in all."""
    cfg = make_cfg(n1=64, n3=65)
    st = random_state(cfg, 0.5, 6)
    dt = 0.2 * cfl_limits(st, cfg)
    marks = []

    def on_step(new):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        run_prim(st, cfg, t_end=2 * dt, dt=dt, on_step=on_step)
    finally:
        tracemalloc.stop()
    (held, _), (_, peak) = marks
    assert peak - held <= 12 * st.rho.nbytes


def test_a_kept_work_gives_the_same_step():
    """The right side consumes a work handed to it; a caller that keeps the
    work gets the same results and finds its work unchanged."""
    cfg = make_cfg()
    st = random_state(cfg, 0.5, 8)
    kept = _state_work(st, cfg)
    rates = _tendencies(st, cfg, kept)
    for got, want in zip(rates, _tendencies(st, cfg, _state_work(st, cfg))):
        assert np.array_equal(got, want)
    fresh = _state_work(st, cfg)
    for name in kept._fields:  # D, a tuple of five fields, compares stacked
        assert np.array_equal(np.asarray(getattr(kept, name)),
                              np.asarray(getattr(fresh, name))), name
    dt = 0.2 * cfl_limits(st, cfg)
    limit = _cfl_limit(st, kept)
    again = _step_prim(st, cfg, dt, limit, None, kept)
    handed = _step_prim(st, cfg, dt, limit, None, _state_work(st, cfg))
    for name in ("rho", "u", "theta", "a", "B2"):
        assert np.array_equal(getattr(again, name), getattr(handed, name))


def test_public_cfl_bound_reads_the_eos_pass_and_B_only(monkeypatch):
    """The public bound is the run loop's bound, from B and the EOS pass."""
    cfg = make_cfg()
    st = random_state(cfg, 0.5, 5)
    expected = _cfl_limit(st, _state_work(st, cfg))
    calls = count_transformed_fields(monkeypatch)
    assert cfl_limits(st, cfg) == expected
    assert calls[0] <= 2  # B


@settings(max_examples=20, deadline=None)
@given(n1=hst.sampled_from([8, 16, 32]), n3=hst.integers(5, 17),
       eps=hst.floats(0.1, 1.0), seed=hst.integers(0, 2 ** 32 - 1))
def test_public_cfl_bound_is_accepted_by_step_prim(n1, n3, eps, seed):
    """dt = cfl_limits(state) passes step_prim's check, also when the a and
    B2 given to the constructor fill every x1 mode, so that its projection
    moves the peak of |B|."""
    cfg = make_cfg(n1=n1, n3=n3)
    st = random_state(cfg, eps, seed)
    step_prim(st, cfg, cfl_limits(st, cfg))


def stability_polynomial(z, order):
    """R(z) of Heun's method (order 2) or of the SSP-RK3 step (order 3)."""
    return sum(z ** k / math.factorial(k) for k in range(order + 1))


@settings(max_examples=60, deadline=None)
@given(n1=hst.sampled_from([4, 8, 16, 32, 64, 128, 256]), n3=hst.integers(5, 257),
       nu_max=hst.floats(1e-4, 1e2), log_ratio=hst.floats(-12.0, 12.0),
       seed=hst.integers(0, 2 ** 32 - 1))
# criterion 7 at eps = 0.05, and the extreme ratios c_max / nu_max
@example(n1=64, n3=65, nu_max=0.135, log_ratio=math.log10(2.37 / 0.05 / 0.135), seed=0)
@example(n1=256, n3=257, nu_max=1e2, log_ratio=12.0, seed=1)
@example(n1=4, n3=5, nu_max=1e-4, log_ratio=-12.0, seed=2)
def test_cfl_bound_keeps_every_linearized_mode_in_the_rk3_region(n1, n3, nu_max,
                                                                  log_ratio, seed):
    """At the dt of the bound, with c_max = nu_max 10^log_ratio, every mode
    lambda = -nu (s1^2 + s3^2) +- i c hypot(s1, s3) has |R3(dt lambda)| <= 1,
    for nu <= nu_max and c <= c_max chosen independently, s1 up to the
    largest kept x1 wavenumber and s3 up to the central stencil's 1/dx3:
    the whole rectangle [-dt nu_max s2, 0] x [-dt c_max s1, dt c_max s1].
    At 1.01 dt some point of that rectangle has |R3| > 1, so the bound is
    the largest rectangle's.  Heun's R2 fails the same samples wherever the
    rectangle's depth is at most 0.75, as at low Mach number: its region
    holds no segment of the imaginary axis."""
    c_max = nu_max * 10.0 ** log_ratio
    cfg = make_cfg(n1=n1, n3=n3)
    g = cfg.grid
    st = uniform_state(cfg, eps=1.0)
    # a work whose fast speed is c_max and whose largest diffusivity is nu_max
    w = mhd._StateWork(p=0.0, dp_drho=c_max ** 2, dp_dtheta=None, de_dtheta=1.0,
                       rho_e=None, rho_s=None, mu=0.0, kappa=0.0, zeta=nu_max,
                       B=np.zeros((3,) + g.shape))
    dt = _cfl_limit(st, w)
    k1, k3 = np.pi * (n1 // 3), 1.0 / g.dx3
    rng = np.random.default_rng(seed)
    # random modes, then the rectangle's four corners at the largest symbol
    s1 = np.append(rng.uniform(0.0, k1, 500), [k1] * 4)
    s3 = np.append(rng.uniform(0.0, k3, 500), [k3] * 4)
    nu = nu_max * np.append(rng.uniform(0.0, 1.0, 500), [0.0, 0.0, 1.0, 1.0])
    c = c_max * np.append(rng.uniform(0.0, 1.0, 500), [0.0, 1.0, 0.0, 1.0])
    lam = -nu * (s1 ** 2 + s3 ** 2) + 1j * c * np.hypot(s1, s3)
    z = np.concatenate([dt * lam, dt * lam.conj()])
    assert np.max(np.abs(stability_polynomial(z, 3))) <= 1.0 + 1e-12
    # the rectangle's top edge at 1.01 dt
    depth, height = 1.01 * dt * nu_max * (k1 ** 2 + k3 ** 2), 1.01 * dt * c_max * np.hypot(k1, k3)
    top = -depth * np.linspace(0.0, 1.0, 1001) + 1j * height
    assert np.max(np.abs(stability_polynomial(top, 3))) > 1.0
    if dt * nu_max * (k1 ** 2 + k3 ** 2) <= 0.75:
        assert np.max(np.abs(stability_polynomial(z, 2))) > 1.0 + 1e-3


@pytest.mark.parametrize("x, y", [(1.0, math.inf), (0.0, math.inf), (math.inf, 1.0),
                                  (math.inf, math.inf)])
def test_rk3_rectangle_of_an_infinite_speed_or_diffusivity_is_zero(x, y):
    """The bound of an infinite c_max (eps so small that c / eps overflows)
    or nu_max is 0.0, never NaN, so the drivers stop with CflError."""
    assert mhd._rk3_rectangle(x, y) == 0.0


def test_fft_and_eos_passes_per_run_step(monkeypatch):
    """A run_prim step, its row included, transforms at most 122 fields and
    builds each state's work once: the strain, the dissipation, J and the
    EOS pass run once for each of the two stage states and once for the
    new state, and the row reads rho e, rho s and the dissipation from that
    work.  No state's EOS domain is checked again in the EOS pass."""
    cfg = make_cfg()
    st = random_state(cfg, 0.5, 4)
    dt = 0.5 * cfl_limits(st, cfg)
    n_steps = 3
    passes = {"_strain": 0, "_dissipation": 0, "_curl25": 0}
    for name in passes:
        def counted(*args, _name=name, _fn=getattr(mhd, name)):
            passes[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mhd, name, counted)
    eos = [0]
    original_eos = thermo._eos_and_transport

    def counted_eos(*args):
        eos[0] += 1
        return original_eos(*args)
    monkeypatch.setattr(thermo, "_eos_and_transport", counted_eos)
    domain_checks = [0]
    original_check = thermo._check_rho_theta

    def counted_check(*args):
        domain_checks[0] += 1
        return original_check(*args)
    monkeypatch.setattr(thermo, "_check_rho_theta", counted_check)
    public = [0]
    for name in ("pressure", "dp_drho", "dp_dtheta", "de_dtheta", "rho_e_total",
                 "rho_s_total", "mu", "kappa", "zeta"):
        def counted_public(*args, _fn=getattr(thermo, name), **kwargs):
            public[0] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(thermo, name, counted_public)
    calls = count_transformed_fields(monkeypatch)
    _, rows = run_prim(st, cfg, t_end=n_steps * dt, dt=dt)
    assert len(rows) == n_steps
    # the projection (4) and the projected state's work (14, B included) come
    # before the first step
    assert calls[0] <= 4 + 14 + 122 * n_steps
    assert passes == dict.fromkeys(passes, 1 + 3 * n_steps)
    assert eos[0] == 1 + 3 * n_steps
    assert public[0] == 0
    # the state constructor and _check_admissible check the EOS domain
    assert domain_checks[0] == 0


@settings(max_examples=30, deadline=None)
@given(seed=hst.integers(0, 2 ** 32 - 1))
def test_dissipation_is_stress_contracted_with_gradient(seed):
    """The quadratic form phi equals S : grad u for the stress built from
    the same strain."""
    rng = np.random.default_rng(seed)
    theta = 1.0 + 0.3 * rng.uniform(-1, 1, 7)
    d1u, d3u = rng.normal(size=(2, 3, 7))
    S = viscous_stress(theta, d1u, d3u, GAS)
    phi = _dissipation(*strain(theta, d1u, d3u, GAS))
    grad_u = np.stack([d1u, np.zeros_like(d1u), d3u])
    assert np.all(phi >= 0.0)
    assert np.allclose(phi, np.einsum("ij...,ij...->...", S, grad_u),
                       rtol=1e-12, atol=1e-14)


# -- equilibria and decoupling ----------------------------------------------


def test_rest_state_rhs_vanishes():
    cfg = make_cfg()
    st = uniform_state(cfg)
    for rate in _tendencies(st, cfg, _state_work(st, cfg)):
        assert np.max(np.abs(rate)) < 1e-13


def test_rest_state_is_fixed_point():
    cfg = make_cfg()
    st = uniform_state(cfg, eps=0.5)
    dt = 0.5 * cfl_limits(st, cfg)
    for _ in range(100):
        st = step_prim(st, cfg, dt)
    assert np.max(np.abs(st.rho - REF.rho_bar)) < 1e-13
    assert np.max(np.abs(st.theta - REF.theta_bar)) < 1e-13
    assert np.max(np.abs(st.u)) < 1e-13
    B = st.B
    assert np.max(np.abs(B[0])) < 1e-13
    assert np.max(np.abs(B[1])) < 1e-13
    assert np.max(np.abs(B[2] - REF.b_bar)) < 1e-13


def test_uniform_drift_keeps_out_of_plane_sector_silent():
    # constant u1 with uniform thermodynamics: an exact traveling
    # equilibrium, so u2, B1, B2 stay at rounding level
    cfg = make_cfg()
    st = uniform_state(cfg, u1=0.3)
    dt = 0.5 * cfl_limits(st, cfg)
    for _ in range(100):
        st = step_prim(st, cfg, dt)
    B = st.B
    assert np.max(np.abs(st.u[1])) < 1e-12
    assert np.max(np.abs(B[0])) < 1e-12
    assert np.max(np.abs(B[1])) < 1e-12
    assert np.max(np.abs(st.u[0] - 0.3)) < 1e-13
    assert np.max(np.abs(st.theta - REF.theta_bar)) < 1e-13
    assert np.max(np.abs(B[2] - REF.b_bar)) < 1e-12


def test_out_of_plane_sector_decouples_in_active_flow():
    # full in-plane dynamics with u2 = B2 = 0 keeps them exactly zero
    cfg = make_cfg(G="gravity")
    st = wavy_state(cfg, eps=0.5)
    dt = 0.6 * cfl_limits(st, cfg)
    for _ in range(50):
        st = step_prim(st, cfg, dt)
    assert np.max(np.abs(st.u[1])) < 1e-12
    assert np.max(np.abs(st.B2)) < 1e-12
    # the in-plane part did move
    assert np.max(np.abs(st.u[2])) > 1e-6


def test_out_of_plane_velocity_generates_B2():
    cfg = make_cfg()
    st = wavy_state(cfg, eps=0.5, with_u2=True)
    dt = 0.6 * cfl_limits(st, cfg)
    for _ in range(10):
        st = step_prim(st, cfg, dt)
    assert np.max(np.abs(st.B2)) > 1e-8


# -- conservation -----------------------------------------------------------


def test_mass_conserved_to_rounding():
    cfg = make_cfg(G="gravity")
    st = wavy_state(cfg, eps=0.2)
    mass0 = cfg.grid.volume * mean_arr(st.rho, cfg.grid)
    st, rows = run_prim(st, cfg, t_end=100 * 0.6 * cfl_limits(st, cfg))
    masses = np.array([r[1] for r in rows])
    assert len(rows) >= 100
    assert np.max(np.abs(masses - mass0)) < 1e-12


def test_divB_and_mean_B3_exact():
    cfg = make_cfg(G="gravity")
    st = wavy_state(cfg, eps=0.2)
    g = cfg.grid
    c3 = st.c3
    st, rows = run_prim(st, cfg, t_end=50 * 0.6 * cfl_limits(st, cfg))
    divb = np.array([r[5] for r in rows])
    assert np.max(divb) < 1e-10
    assert mean_arr(st.B[2], g) == pytest.approx(c3, abs=1e-13)


def test_theta_walls_pinned_exactly():
    profile = 0.2 + 0.1 * np.cos(np.pi * Grid(Geometry.STRIP2, 16, n3=9).x1)
    cfg = make_cfg(theta_B=(profile, -profile))
    st = wavy_state(cfg, eps=0.3)
    st = step_prim(st, cfg, 0.5 * cfl_limits(st, cfg))
    assert np.array_equal(st.theta[0], REF.theta_bar + 0.3 * profile)
    assert np.array_equal(st.theta[-1], REF.theta_bar - 0.3 * profile)
    assert np.all(st.u[2, 0] == 0.0) and np.all(st.u[2, -1] == 0.0)
    # the one-sided d3 a = 0 wall stencil propagates as a linear invariant
    assert np.max(np.abs(st.a[0] - (4 * st.a[1] - st.a[2]) / 3)) < 1e-14


# -- entropy production -----------------------------------------------------


def test_entropy_production_nonnegative_pointwise():
    rng = np.random.default_rng(21)
    cfg = make_cfg(n1=16, n3=17)
    g = cfg.grid
    for _ in range(5):
        rho = 1.0 + 0.4 * rng.uniform(-1, 1, g.shape)
        theta = 1.0 + 0.4 * rng.uniform(-1, 1, g.shape)
        u = 0.3 * rng.normal(size=(3,) + g.shape)
        a = 0.05 * rng.normal(size=g.shape)
        B2 = 0.1 * rng.normal(size=g.shape)
        st = PrimitiveState(g, rho, u, theta, a, REF.b_bar, B2, 0.3, 0.0)
        phi, joule, cond = entropy_production_terms(st, cfg)
        for term in (phi, joule, cond):
            assert np.min(term) >= -1e-14
        assert mean_arr(phi + joule + cond, g) > 0.0


def test_entropy_fault_flag_breaks_sign():
    cfg = make_cfg()
    st = wavy_state(cfg)
    _, rows = run_prim(st, cfg, t_end=0.1 * cfl_limits(st, cfg), entropy_fault=True)
    assert len(rows) == 1
    assert rows[0].entropy_floor < -1e-14


@settings(max_examples=40, deadline=None)
@given(n1=hst.sampled_from([8, 16]), n3=hst.integers(5, 17),
       eps=hst.floats(0.1, 1.0), seed=hst.integers(0, 2 ** 32 - 1),
       fault=hst.booleans())
def test_row_floor_and_cached_field_property(n1, n3, eps, seed, fault):
    """The row's entropy floor is the pointwise minimum of the step's
    production terms, and a state's B is a read-only array equal to a fresh
    assembly from (a, c3, B2), built anew on each read and cached nowhere."""
    cfg = make_cfg(n1=n1, n3=n3)
    g = cfg.grid
    start = random_state(cfg, eps, seed)
    state, rows = run_prim(start, cfg, t_end=0.1 * cfl_limits(start, cfg),
                           entropy_fault=fault)
    assert len(rows) == 1
    phi, joule, cond = entropy_production_terms(state, cfg)
    if fault:
        phi = -phi
    assert rows[0].entropy_floor == min(float(np.min(t)) for t in (phi, joule, cond))
    assert rows[0].entropy_production == g.volume * mean_arr(phi + joule + cond, g)
    B = state.B
    assert state.B is not B and np.array_equal(state.B, B)
    assert "B" not in vars(state)
    assert not B.flags.writeable
    with pytest.raises(ValueError):
        B[0, 1, 1] = 1.0
    fresh = np.stack([-ddx3_arr(state.a, g), state.B2,
                      state.c3 + ddx1_arr(state.a, g)])
    assert np.array_equal(B, fresh)


def test_run_rows_report_nonnegative_production():
    cfg = make_cfg(G="gravity")
    st = wavy_state(cfg, eps=0.3)
    st, rows = run_prim(st, cfg, t_end=20 * 0.6 * cfl_limits(st, cfg))
    for r in rows:
        assert r[8] >= -1e-14
        assert r[6] > 0.0 and r[7] > 0.0


# -- acoustics --------------------------------------------------------------


def test_acoustic_mode_frequency():
    # strong heat conduction relaxes temperature fluctuations, so the
    # horizontal sound speed is the isothermal sqrt(dp_drho) and the k-th
    # standing mode oscillates at sqrt(dp_drho) pi k / eps
    gas = thermo.GasParams(p_inf=1.0, a=0.0, mu_low=5e-3, mu_high=5e-3,
                           kappa_low=4.6, kappa_high=4.6,
                           zeta_low=5e-3, zeta_high=5e-3)
    ref = thermo.ReferenceState(rho_bar=1.0, theta_bar=1.0, b_bar=0.05)
    eps, k = 0.2, 3
    grid = Grid(Geometry.STRIP2, 32, n3=9)
    cfg = PrimConfig(grid, gas, ref, np.zeros(grid.shape), (0.0, 0.0))
    x1 = grid.x1[None, :]
    rho = 1.0 + 1e-3 * np.cos(np.pi * k * x1) * np.ones(grid.shape)
    st = PrimitiveState(grid, rho, np.zeros((3,) + grid.shape),
                        np.ones(grid.shape), np.zeros(grid.shape), ref.b_bar,
                        np.zeros(grid.shape), eps, 0.0)
    trace = []

    def record(s):
        bar = grid.w3 @ (s.rho - 1.0)
        trace.append((s.t, np.fft.rfft(bar)[k].real))

    omega = np.sqrt(thermo.dp_drho(1.0, 1.0, gas)) * np.pi * k / eps
    run_prim(st, cfg, t_end=2.2 * 2 * np.pi / omega, on_step=record)
    ts = np.array([p[0] for p in trace])
    cs = np.array([p[1] for p in trace])
    sign_flips = np.nonzero(np.diff(np.sign(cs)))[0]
    crossings = []
    for i in sign_flips:
        t0, t1, c0, c1 = ts[i], ts[i + 1], cs[i], cs[i + 1]
        crossings.append(t0 - c0 * (t1 - t0) / (c1 - c0))
    assert len(crossings) >= 4
    half_periods = np.diff(crossings)
    omega_hat = np.pi / np.mean(half_periods)
    assert abs(omega_hat - omega) / omega < 0.01


# -- step validation --------------------------------------------------------


def test_cfl_rejection():
    cfg = make_cfg()
    st = wavy_state(cfg)
    st.t = 0.125
    with pytest.raises(CflError, match=r"in the step from t = 0\.125$"):
        step_prim(st, cfg, 10.0 * cfl_limits(st, cfg))


def test_positivity_rejection_dumps_last_valid():
    """The error carries the last valid state; writing it is the command
    line's part (test_cli)."""
    cfg = make_cfg()
    st = uniform_state(cfg)

    def chill(_t):
        cold = np.zeros(cfg.grid.shape)
        cold[3, 5] = -1e4
        return {"theta": cold}

    with pytest.raises(PositivityError) as err:
        run_prim(st, cfg, t_end=1.0, src=chill)
    last = err.value.last_valid
    for name in ("rho", "u", "theta", "a", "B2"):
        assert np.array_equal(getattr(last, name), getattr(st, name))
    assert (last.c3, last.eps, last.t) == (st.c3, st.eps, st.t)
    # the message names the last valid time and the node that went negative
    message = str(err.value)
    assert f"from t = {st.t!r}:" in message
    assert "min theta = -" in message and "at (i3, i1) = (3, 5)" in message


def test_invalid_state_construction():
    cfg = make_cfg()
    g = cfg.grid
    good = dict(u=np.zeros((3,) + g.shape), theta=np.ones(g.shape),
                a=np.zeros(g.shape), B2=np.zeros(g.shape))
    with pytest.raises(FieldError):
        PrimitiveState(g, -np.ones(g.shape), good["u"], good["theta"],
                       good["a"], 0.5, good["B2"], 0.5, 0.0)
    with pytest.raises(FieldError):
        PrimitiveState(g, np.ones(g.shape), good["u"], 0.0 * good["theta"],
                       good["a"], 0.5, good["B2"], 0.5, 0.0)
    with pytest.raises(FieldError):
        PrimitiveState(g, np.ones(g.shape), good["u"][:2], good["theta"],
                       good["a"], 0.5, good["B2"], 0.5, 0.0)


STATE_FIELDS = ("rho", "u", "theta", "a", "B2")


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", STATE_FIELDS)
def test_state_rejects_a_field_of_wrong_shape_or_non_finite(name, bad):
    st = uniform_state(make_cfg())
    fields = {key: getattr(st, key) for key in STATE_FIELDS}
    fields[name], match = malformed(fields[name], bad)
    with pytest.raises(FieldError, match=match.format(name=name)):
        PrimitiveState(st.grid, fields["rho"], fields["u"], fields["theta"],
                       fields["a"], st.c3, fields["B2"], st.eps, st.t)


@pytest.mark.parametrize("eps", [0.0, -0.5, np.nan, np.inf])
def test_state_rejects_a_non_positive_or_non_finite_eps(eps):
    st = uniform_state(make_cfg())
    with pytest.raises(FieldError, match="eps must be positive"):
        PrimitiveState(st.grid, st.rho, st.u, st.theta, st.a, st.c3, st.B2, eps, st.t)


@pytest.mark.parametrize("bad", BAD)
def test_b3_profile_of_wrong_shape_or_non_finite_is_rejected(bad):
    grid = make_cfg().grid
    b3, match = malformed(np.full(grid.n1, 0.5), bad)
    with pytest.raises(FieldError, match=match.format(name="b3")):
        a_from_b3_profile(b3, grid)


def test_step_rejects_a_non_finite_stage():
    """A stage with a NaN is refused before its positivity is read."""
    cfg = make_cfg()
    st = wavy_state(cfg)

    def poison(_t):
        rho = np.zeros(cfg.grid.shape)
        rho[4, 5] = np.nan
        return {"rho": rho}

    with pytest.raises(FieldError, match="non-finite values produced by the step"):
        step_prim(st, cfg, 0.5 * cfl_limits(st, cfg), src=poison)


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("theta_B", [-2.0, -2.5])
def test_a_non_positive_wall_temperature_stops_the_run_before_its_first_row(
        monkeypatch, side, theta_B):
    """theta_bar + eps theta_B <= 0 at a wall (here 0 and -0.25 at eps =
    0.5): the first stage imposes it and fails its positivity check, so the
    run raises PositivityError with the initial state before any row.  The
    row reads psi = psi_extension, a blend of the two wall temperatures, and
    so only ever sees psi > 0."""
    walls = [0.0, 0.0]
    walls[side] = theta_B
    cfg = make_cfg(theta_B=tuple(walls))
    st = uniform_state(cfg, eps=0.5)
    assert np.min(psi_extension(cfg, st.eps)) <= 0.0
    rows = []
    monkeypatch.setattr(mhd, "_row", lambda *args: rows.append(args))
    with pytest.raises(PositivityError, match=r"min theta = (-|0\.0)") as err:
        run_prim(st, cfg, t_end=0.01)
    assert err.value.last_valid is st
    assert rows == []


@pytest.mark.parametrize("c3, t", [(np.nan, 0.0), (np.inf, 0.0), (0.5, np.nan),
                                   (0.5, np.inf), (0.5, -np.inf)])
def test_non_finite_c3_or_t_is_rejected(c3, t):
    """A NaN c3 would give a NaN bound and an infinite t a run of no steps."""
    g = make_cfg().grid
    with pytest.raises(FieldError, match="must be finite"):
        PrimitiveState(g, np.ones(g.shape), np.zeros((3,) + g.shape),
                       np.ones(g.shape), np.zeros(g.shape), c3, np.zeros(g.shape),
                       0.5, t)


@given(t_end=hst.sampled_from([np.nan, np.inf, -np.inf]),
       limit=hst.booleans())
def test_non_finite_t_end_is_rejected_by_both_drivers(t_end, limit):
    """Both drivers refuse a non-finite t_end up front, before the landing
    rule would turn it into a step count."""
    cfg = make_cfg()
    g = cfg.grid
    if limit:
        with pytest.raises(FieldError, match="t_end must be finite"):
            obm.ObmConfig(g, GAS, REF, obm.default_potential(g), (0.0, 0.0),
                          dt=1e-3, t_end=t_end)
    else:
        with pytest.raises(FieldError, match="t_end must be finite"):
            run_prim(uniform_state(cfg), cfg, t_end=t_end)


@given(dt=hst.one_of(hst.just(np.nan), hst.just(0.0), hst.just(-0.0),
                     hst.floats(max_value=0.0, exclude_max=True)))
def test_run_prim_rejects_a_nan_or_non_positive_dt(dt):
    """dt must be None or positive, the rule ObmConfig.dt keeps: a NaN or a
    zero would reach the landing rule's step count, and a negative dt would
    take the whole remaining time in one step."""
    cfg = make_cfg()
    with pytest.raises(FieldError, match="dt must be positive"):
        run_prim(uniform_state(cfg), cfg, t_end=0.01, dt=dt)


def collapse_after_first_step(monkeypatch):
    """Make the CFL bound 5e-324, the smallest float, once a state has
    stepped: the automatic dt collapses after the first step."""
    real = mhd._cfl_limit
    monkeypatch.setattr(mhd, "_cfl_limit",
                        lambda state, w: real(state, w) if state.t == 0 else 5e-324)


def test_run_prim_raises_cfl_error_when_the_automatic_dt_collapses(monkeypatch):
    """A bound whose remaining steps exceed 2**20 is a CflError naming the
    step and t, not an OverflowError from the landing rule.  t_end is about
    four automatic steps, so the run has not landed when the bound
    collapses."""
    cfg = make_cfg()
    collapse_after_first_step(monkeypatch)
    with pytest.raises(CflError, match=r"collapsed to 4\.941e-324 after step 1, "
                                       r"at t = [0-9.e-]+: more than 1048576 steps"):
        run_prim(wavy_state(cfg), cfg, t_end=0.05)


# -- energies ---------------------------------------------------------------


def row_energies(st, cfg):
    """The total and ballistic energies of the run_prim row of st, with psi
    the wall extension, theta_bar on these configs' zero walls."""
    row = _row(st, _state_work(st, cfg), psi_extension(cfg, st.eps), False)
    return row.total_energy, row.ballistic_energy


def test_ballistic_rest_state_closed_form():
    cfg = make_cfg()
    st = uniform_state(cfg, eps=0.25)
    got = row_energies(st, cfg)[1]
    per_volume = (thermo.rho_e_total(1.0, 1.0, GAS) + 0.5 * REF.b_bar ** 2
                  - REF.theta_bar * 1.0 * thermo.entropy(1.0, 1.0, GAS)) / 0.25 ** 2
    assert got == pytest.approx(cfg.grid.volume * per_volume, rel=1e-12)


def test_ballistic_kinetic_term_and_total_energy():
    cfg = make_cfg()
    st0 = uniform_state(cfg, eps=0.25)
    st1 = uniform_state(cfg, eps=0.25, u1=0.2)
    (total0, ballistic0), (total1, ballistic1) = row_energies(st0, cfg), row_energies(st1, cfg)
    dk = ballistic1 - ballistic0
    assert dk == pytest.approx(cfg.grid.volume * 0.5 * 1.0 * 0.2 ** 2, rel=1e-12)
    assert total1 - total0 == pytest.approx(dk, rel=1e-12)


def test_psi_extension_matches_walls():
    profile = 0.3 * np.ones(16)
    cfg = make_cfg(theta_B=(profile, -0.1))
    psi = psi_extension(cfg, 0.2)
    assert np.allclose(psi[0], 1.0 + 0.2 * 0.3, atol=1e-15)
    assert np.allclose(psi[-1], 1.0 - 0.2 * 0.1, atol=1e-15)


# -- magnetic bookkeeping ---------------------------------------------------


def test_a_from_b3_profile_roundtrip():
    grid = Grid(Geometry.STRIP2, 32, n3=9)
    b3 = 0.5 + 0.2 * np.cos(np.pi * grid.x1) + 0.1 * np.sin(2 * np.pi * grid.x1)
    a, c3 = a_from_b3_profile(b3, grid)
    assert c3 == pytest.approx(0.5, abs=1e-14)
    st = PrimitiveState(grid, np.ones(grid.shape), np.zeros((3,) + grid.shape),
                        np.ones(grid.shape), a, c3, np.zeros(grid.shape), 0.5, 0.0)
    B = st.B
    assert np.max(np.abs(B[2] - b3[None, :])) < 1e-12
    assert np.max(np.abs(B[0])) < 1e-15
    divb = ddx1_arr(B[0], grid) + ddx3_arr(B[2], grid)
    assert np.max(np.abs(divb)) < 1e-12


# -- time accuracy ----------------------------------------------------------


def test_step_is_third_order_in_dt():
    cfg = make_cfg(G="gravity")
    base = wavy_state(cfg, eps=0.5, amp=0.03)
    t_end = 0.008

    def advance(dt):
        st = base
        for _ in range(int(round(t_end / dt))):
            st = step_prim(st, cfg, dt)
        return st

    dts = [1e-3, 5e-4, 2.5e-4]
    ref_state = advance(1.25e-4)
    errs = []
    for dt in dts:
        st = advance(dt)
        errs.append(np.max(np.abs(st.rho - ref_state.rho))
                    + np.max(np.abs(st.theta - ref_state.theta))
                    + np.max(np.abs(st.u - ref_state.u)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 2.6) and np.all(orders < 3.4)


@pytest.mark.parametrize("eps", [0.5, 0.05, 0.025])
def test_noisy_acoustic_data_at_the_automatic_dt(eps):
    """Criterion-7 data on 32x33 with 0.3 eps times 12 random low x1/x3
    modes added to rho, which starts acoustic waves, stays admissible at the
    automatic dt, and its perturbations agree within 1 % with a run at a
    quarter of that dt."""
    g = Grid(Geometry.STRIP2, 32, n3=33)
    ocfg = obm.ObmConfig(g, GAS, REF, obm.default_potential(g), (0.0, 0.0),
                         dt=1e-3, t_end=0.04)
    x1, x3 = g.x1[None, :], g.x3[:, None]
    theta1 = 0.1 * np.sin(np.pi * x3) * (1.0 + 0.5 * np.cos(np.pi * x1))
    theta1 = np.broadcast_to(theta1, g.shape).copy()
    prim, _, _ = well_prepared_data(theta1, 0.25 * np.cos(np.pi * g.x1), ocfg, eps)
    rng = np.random.default_rng(5)
    noise = sum(rng.normal() * np.cos(np.pi * k1 * x1 + rng.uniform(0.0, 2 * np.pi))
                * np.cos(np.pi * k3 * x3) for k1 in range(4) for k3 in range(1, 4))
    prim = replace(prim, rho=prim.rho + 0.3 * eps * noise)
    cfg = PrimConfig(g, GAS, REF, ocfg.G, ocfg.theta_B)
    got, _ = run_prim(prim, cfg, ocfg.t_end)
    want, _ = run_prim(prim, replace(cfg, safety=cfg.safety / 4), ocfg.t_end)
    for name, part in (("rho", lambda s: (s.rho - REF.rho_bar) / eps),
                       ("theta", lambda s: (s.theta - REF.theta_bar) / eps),
                       ("u", lambda s: s.u), ("a", lambda s: s.a)):  # B2 stays 0
        rel = l2_arr(part(got) - part(want), g) / l2_arr(part(want), g)
        assert rel < 0.01, f"{name}: relative difference {rel:.2e}"

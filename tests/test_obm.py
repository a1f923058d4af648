"""Tests for the limit-system solver."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obmlab import fields, mhd, obm, thermo
from obmlab.fields import (
    FieldError,
    Geometry,
    Grid,
    d2dx3_arr,
    from_sine_modes,
    lap_h_arr,
    mean_arr,
    sine_modes,
    wall_flux_arr,
)
from obmlab.obm import (
    ObmConfig,
    ObmState,
    _heat_terms,
    _landing_step,
    boussinesq_rho,
    compute_chi,
    default_potential,
    initial_state,
    run_obm,
    step_obm,
)

from oracle1d import solve_heat_mean
from malformed import BAD, malformed

GAS = thermo.GasParams(p_inf=1.0, a=0.0)
REF = thermo.ReferenceState(rho_bar=1.0, theta_bar=1.0, b_bar=0.5)


def make_cfg(grid, dt=1e-3, t_end=0.1, G=None, theta_B=(0.0, 0.0),
             gas=GAS, ref=REF):
    if G is None:
        G = default_potential(grid)
    return ObmConfig(grid=grid, gas=gas, ref=ref, G=G, theta_B=theta_B,
                     dt=dt, t_end=t_end)


def strip2(n1=32, n3=33):
    return Grid(Geometry.STRIP2, n1, n3=n3)


def random_state(grid, rng, cfg):
    th = rng.standard_normal(grid.shape)
    b1 = rng.standard_normal(grid.hshape)
    return ObmState.create(grid, th, b1, gas=cfg.gas, ref=cfg.ref)


def induction_rhs(b1, cfg):
    """Induction right side: with the flow pinned to zero nothing transports
    b1, and step_obm solves for the whole of zeta lap_h b1."""
    return cfg.zeta * lap_h_arr(b1, cfg.grid)


def heat_rhs(st, cfg):
    """Full heat right side and the closed mean drift: the explicit terms
    plus the stiff kappa lap theta1 / (rho_bar c_p) that step_obm solves
    for, and d<theta1>/dt = kappa <lap theta1> / (rho_bar de_dtheta) from
    the wall flux."""
    flux = wall_flux_arr(st.theta1, cfg.grid)
    nonstiff = _heat_terms(flux, st.b1, cfg)
    drift = cfg.kappa * flux / (cfg.ref.rho_bar * cfg.dedt)
    lap = lap_h_arr(st.theta1, cfg.grid) + d2dx3_arr(st.theta1, cfg.grid)
    return nonstiff + cfg.kappa * lap / (cfg.ref.rho_bar * cfg.cp), drift


# -- configuration and state validation --------------------------------------


def test_config_rejects_biased_potential():
    g = strip2()
    with pytest.raises(FieldError):
        make_cfg(g, G=np.ones(g.shape))
    with pytest.raises(FieldError):
        make_cfg(g, dt=0.0)
    with pytest.raises(FieldError):
        ObmConfig(grid=Grid(Geometry.TORUS2, 16, 16), gas=GAS, ref=REF,
                  G=np.zeros((16, 16)), theta_B=(0.0, 0.0), dt=1e-3, t_end=0.1)


def test_default_potential_is_mean_free():
    g = strip2(16, 21)
    assert abs(mean_arr(default_potential(g), g)) < 1e-14


def test_state_validation():
    g = strip2(16, 9)
    cfg = make_cfg(g)
    with pytest.raises(FieldError):
        ObmState(g, np.zeros(g.shape), np.zeros(g.shape), 0.0, 0.0)  # b1 on the strip
    assert np.array_equal(ObmState.create(g, np.zeros(g.shape), gas=GAS, ref=REF).U,
                          np.zeros((2,) + g.hshape))  # the pinned flow
    bad = np.zeros(g.shape)
    bad[2, 2] = np.inf
    with pytest.raises(FieldError):
        ObmState.create(g, bad, gas=cfg.gas, ref=cfg.ref)
    with pytest.raises(TypeError, match="gas"):
        ObmState.create(g, np.zeros(g.shape))  # chi needs the gas and reference
    # shapes are checked before chi reads theta1
    with pytest.raises(FieldError, match=r"theta1 shape \(8, 16\) != \(9, 16\)"):
        ObmState.create(g, np.zeros((8, 16)), gas=GAS, ref=REF)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", ["theta1", "b1"])
def test_state_rejects_a_field_of_wrong_shape_or_non_finite(name, bad):
    g = strip2(16, 9)
    fields = {"theta1": np.zeros(g.shape), "b1": np.zeros(g.hshape)}
    fields[name], match = malformed(fields[name], bad)
    with pytest.raises(FieldError, match=match.format(name=name)):
        ObmState(g, fields["theta1"], fields["b1"], 0.0, 0.0)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", ["G", "bottom", "top"])
@pytest.mark.parametrize("config", ["limit", "compressible"])
def test_configs_reject_a_potential_or_wall_of_wrong_shape_or_non_finite(
        config, name, bad):
    """Both configs check G and the walls, each a number or an hshape array,
    through one helper; the error names the input."""
    g = strip2(16, 9)
    inputs = {"G": default_potential(g), "bottom": np.zeros(g.hshape),
              "top": np.zeros(g.hshape)}
    inputs[name], match = malformed(inputs[name], bad)
    G, walls = inputs["G"], (inputs["bottom"], inputs["top"])
    what = name if name == "G" else f"{name} wall temperature"
    with pytest.raises(FieldError, match=match.format(name=what)):
        if config == "limit":
            ObmConfig(g, GAS, REF, G, walls, dt=1e-3, t_end=0.1)
        else:
            mhd.PrimConfig(g, GAS, REF, G, walls)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_uniform_wall_must_be_finite(bad):
    g = strip2(16, 9)
    with pytest.raises(FieldError, match="non-finite values in top wall temperature"):
        make_cfg(g, theta_B=(0.0, bad))
    assert np.array_equal(make_cfg(g, theta_B=(0.0, 0.3)).theta_B[1], np.full(16, 0.3))


@given(bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       name=st.sampled_from(["t", "chi"]))
def test_state_rejects_a_non_finite_t_or_chi(bad, name):
    """A NaN or infinite t or chi is refused at construction, before the
    landing rule of run_obm would turn it into a step count."""
    g = strip2(16, 9)
    values = {"t": 0.0, "chi": 0.0, name: bad}
    with pytest.raises(FieldError, match="chi and t must be finite"):
        ObmState(g, np.zeros(g.shape), np.zeros(g.hshape), **values)


# -- Boussinesq closure --------------------------------------------------------


def test_boussinesq_trivial_zero():
    g = strip2()
    cfg = make_cfg(g, G=np.zeros(g.shape))
    rho1 = boussinesq_rho(np.full(g.shape, 0.7), np.zeros(g.hshape), cfg)
    assert np.max(np.abs(rho1)) < 1e-14


def test_boussinesq_mean_free_random():
    rng = np.random.default_rng(5)
    g = strip2()
    c = g.coords()
    G = np.broadcast_to(0.5 - c["x3"] + 0.3 * np.cos(np.pi * c["x1"]), g.shape)
    cfg = make_cfg(g, G=G.copy())
    for _ in range(5):
        rho1 = boussinesq_rho(rng.standard_normal(g.shape),
                              rng.standard_normal(g.hshape), cfg)
        assert abs(mean_arr(rho1, g)) < 1e-12


def test_boussinesq_canonical_coefficient():
    # at the canonical reference point dp_dtheta/dp_drho = 1/(8/3) = 3/8
    g = strip2()
    cfg = make_cfg(g, G=np.zeros(g.shape))
    c = g.coords()
    th = np.broadcast_to(np.sin(np.pi * c["x1"]), g.shape).copy()
    rho1 = boussinesq_rho(th, np.zeros(g.hshape), cfg)
    assert np.max(np.abs(rho1 + (3.0 / 8.0) * th)) < 1e-12


# -- induction -----------------------------------------------------------------


def test_induction_diffusion_eigenmode():
    g = strip2(64, 9)
    cfg = make_cfg(g)
    z = float(thermo.zeta(REF.theta_bar, GAS))
    for k in (1, 3, 8):
        b1 = np.sin(np.pi * k * g.x1)
        rhs = induction_rhs(b1, cfg)
        lam = z * (np.pi * k) ** 2
        assert np.max(np.abs(rhs + lam * b1)) < 1e-10 * lam


def test_induction_constant_field_inert():
    g = strip2(16, 17)
    cfg = make_cfg(g)
    rhs = induction_rhs(np.full(g.hshape, 0.8), cfg)
    assert np.max(np.abs(rhs)) < 1e-12
    st = ObmState.create(g, np.zeros(g.shape), np.full(g.hshape, 0.8), gas=GAS, ref=REF)
    assert np.max(np.abs(step_obm(st, cfg).b1 - 0.8)) < 1e-15


def test_induction_mean_free():
    rng = np.random.default_rng(7)
    g = strip2(16, 17)
    cfg = make_cfg(g)
    for _ in range(5):
        rhs = induction_rhs(rng.standard_normal(g.hshape), cfg)
        assert abs(rhs.mean()) < 1e-13


# -- heat ----------------------------------------------------------------------


def test_heat_equilibrium():
    g = strip2()
    cfg = make_cfg(g, theta_B=(0.4, 0.4))
    st = ObmState.create(g, np.full(g.shape, 0.4), gas=GAS, ref=REF)
    out, drift = heat_rhs(st, cfg)
    assert abs(drift) < 1e-12
    assert np.max(np.abs(out)) < 1e-11


def test_heat_drift_analytic_sine():
    # theta1 = sin(pi x3): boundary flux is -2 pi, so the closed mean ODE
    # gives drift = -2 pi kappa / (rho_bar de_dtheta)
    g = strip2(8, 65)
    cfg = make_cfg(g)
    c = g.coords()
    th = np.broadcast_to(np.sin(np.pi * c["x3"]), g.shape).copy()
    st = ObmState.create(g, th, gas=GAS, ref=REF)
    _, drift = heat_rhs(st, cfg)
    kap = float(thermo.kappa(REF.theta_bar, GAS))
    dedt = float(thermo.de_dtheta(REF.rho_bar, REF.theta_bar, GAS))
    want = -2.0 * np.pi * kap / (REF.rho_bar * dedt)
    assert abs(drift - want) < 1e-3 * abs(want)


@pytest.mark.parametrize("n1, n3, x1_potential", [(32, 33, False), (16, 17, True)],
                         ids=["strip2", "strip2-x1-potential"])
def test_heat_mean_consistency_random(n1, n3, x1_potential):
    """The discrete mean of the full heat right side must reproduce the
    closed mean ODE; this re-runs the integration argument discretely."""
    rng = np.random.default_rng(8)
    g = strip2(n1, n3)
    c = g.coords()
    G = 0.5 - c["x3"]
    if x1_potential:
        G = G + 0.2 * np.cos(np.pi * c["x1"]) * np.sin(np.pi * c["x3"])
    cfg = make_cfg(g, G=np.broadcast_to(G, g.shape).copy())
    for _ in range(3):
        st = random_state(g, rng, cfg)
        out, drift = heat_rhs(st, cfg)
        scale = max(1.0, np.max(np.abs(out)))
        assert abs(mean_arr(out, g) - drift) < 1e-8 * scale


# -- stepping ------------------------------------------------------------------


def test_zero_data_stays_zero():
    g = strip2(16, 9)
    cfg = make_cfg(g, G=np.zeros(g.shape), dt=1e-3)
    st = ObmState.create(g, np.zeros(g.shape), gas=GAS, ref=REF)
    for _ in range(100):
        st = step_obm(st, cfg)
    assert np.all(st.theta1 == 0.0)
    assert np.all(st.b1 == 0.0)
    assert np.all(st.U == 0.0)
    assert st.chi == 0.0


def test_b1_pure_diffusion_matches_heat_kernel():
    g = strip2(64, 9)
    cfg = make_cfg(g, dt=1e-3)
    k = 2
    b0 = np.sin(np.pi * k * g.x1)
    st = ObmState.create(g, np.zeros(g.shape), b0, gas=GAS, ref=REF)
    for _ in range(100):
        st = step_obm(st, cfg)
    z = float(thermo.zeta(REF.theta_bar, GAS))
    want = np.exp(-z * (np.pi * k) ** 2 * 0.1) * b0
    assert np.max(np.abs(st.b1 - want)) < 1e-6


def test_chi_invariant_and_diagnostics():
    """chi follows theta1, and a row's continuity residual is the largest
    rate of change of the Boussinesq density over its step."""
    g = strip2()
    cfg = make_cfg(g, dt=5e-4, t_end=1e-3)
    st0 = initial_state(cfg)
    st, rows = run_obm(st0, cfg)
    assert st.chi == compute_chi(st.theta1, g, GAS, REF) == rows[-1][2]
    one = step_obm(st0, cfg)
    rate = (boussinesq_rho(one.theta1, one.b1, cfg)
            - boussinesq_rho(st0.theta1, st0.b1, cfg)) / cfg.dt
    residual = rows[0][5]
    assert residual > 0.0
    assert residual == pytest.approx(np.max(np.abs(rate)), rel=1e-8)


def test_dirichlet_walls_exact():
    g = strip2(16, 17)
    cfg = make_cfg(g, dt=1e-3, theta_B=(0.1, -0.2))
    st = initial_state(cfg, theta_amp=0.3)
    for _ in range(5):
        st = step_obm(st, cfg)
    assert np.max(np.abs(st.theta1[0] - 0.1)) < 1e-13
    assert np.max(np.abs(st.theta1[-1] + 0.2)) < 1e-13


def test_mean_b1_conserved():
    rng = np.random.default_rng(11)
    g = strip2(16, 9)
    cfg = make_cfg(g, dt=1e-3)
    st = random_state(g, rng, cfg)
    st.b1 += 0.6
    m0 = st.b1.mean()
    for _ in range(300):
        st = step_obm(st, cfg)
    assert abs(st.b1.mean() - m0) < 1e-12


class _NumpyWithFFT:
    """numpy seen through a replaced ``fft`` namespace."""

    def __init__(self, **fft):
        self.fft = SimpleNamespace(**fft)

    def __getattr__(self, name):
        return getattr(np, name)


def test_step_makes_two_strip_ffts(monkeypatch):
    """Strip-sized FFT calls, those on at least the strip's interior rows by
    its x1 modes: the forward transform of theta1 when the first step reads
    its modes, then one inverse transform per step.  The predictor's column
    solve and the x1 transforms of the walls, the forcing and b1 are smaller.
    (The real-space Crank-Nicolson step made six per step.)"""
    g = strip2(16, 17)
    calls = []

    def counted(fn):
        def wrapper(a, *args, **kwargs):
            if np.ndim(a) == 2 and a.shape[0] >= g.n3 - 2 \
                    and a.shape[1] >= g.n1 // 2 + 1:
                calls.append(fn.__name__)
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(fields, "np", _NumpyWithFFT(**{
        name: counted(getattr(np.fft, name))
        for name in ("fft", "ifft", "rfft", "irfft", "rfftn", "irfftn")}))
    cfg = make_cfg(g, dt=1e-3, t_end=0.005, theta_B=(0.1, -0.2))
    run_obm(initial_state(cfg), cfg)
    assert calls == ["rfft", "fft"] + ["ifft", "irfft"] * 5


def helmholtz_dense(rhs, bottom, top, c, g):
    """Solve (I - c (lap_h + d2/dx3^2)) x = rhs with x = bottom, top on the
    walls: per horizontal mode, the explicitly assembled tridiagonal matrix
    with identity wall rows, by np.linalg.solve."""
    spec = np.fft.rfft(rhs, axis=-1).T.copy()
    spec[:, 0] = np.fft.rfft(bottom)
    spec[:, -1] = np.fft.rfft(top)
    off = -c / g.dx3 ** 2
    A = np.zeros((spec.shape[0], g.n3, g.n3))
    i = np.arange(1, g.n3 - 1)
    A[:, i, i] = 1.0 + g.ksq.reshape(-1, 1) * c - 2.0 * off
    A[:, i, i - 1] = off
    A[:, i, i + 1] = off
    A[:, 0, 0] = A[:, -1, -1] = 1.0
    x = np.linalg.solve(A, spec[..., None])[..., 0]
    return np.fft.irfft(x.T, n=g.n1, axis=-1)


@settings(max_examples=60, deadline=None)
@given(n1=st.sampled_from([4, 8, 16]), n3=st.integers(5, 65),
       log_c=st.floats(-6.0, 2.0), with_source=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_crank_nicolson_matches_dense_property(n1, n3, log_c, with_source, seed):
    """One heat step in the Fourier-sine modes against the dense solve of
    (I - c L) x = (I + c L) theta1 + forcing + source, with non-uniform
    walls, wall rows of theta1 that are not those walls, an x3-independent
    forcing and, when drawn, a strip-shaped source."""
    g = strip2(n1, n3)
    rng = np.random.default_rng(seed)
    walls = rng.standard_normal(g.hshape), rng.standard_normal(g.hshape)
    base = make_cfg(g)
    cth = base.kappa / (REF.rho_bar * base.cp)
    cfg = make_cfg(g, dt=2.0 * 10.0 ** log_c / cth, theta_B=walls)
    c = 0.5 * cfg.dt * cth
    st0 = random_state(g, rng, cfg)
    forcing = rng.standard_normal(g.hshape)
    source = rng.standard_normal(g.shape) if with_source else None
    ext = fields._odd_extension(g)
    got = from_sine_modes(obm._crank_nicolson(st0, forcing, source, cfg, ext), *walls, g)
    lap = lap_h_arr(st0.theta1, g) + d2dx3_arr(st0.theta1, g)
    rhs = st0.theta1 + c * lap + forcing + (0.0 if source is None else source)
    want = helmholtz_dense(rhs, *walls, c, g)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(n1=st.sampled_from([4, 8, 16]), n3=st.integers(5, 33),
       n_steps=st.integers(1, 8), log_dt=st.floats(-5.0, -1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_carried_modes_property(n1, n3, n_steps, log_dt, seed):
    """The modes and x1-mean column a step hands over are those of the
    theta1 it made; a state rebuilt from that theta1 steps to the same next
    state; and dataclasses.replace builds both anew from its own theta1."""
    g = strip2(n1, n3)
    rng = np.random.default_rng(seed)
    walls = rng.standard_normal(g.hshape), rng.standard_normal(g.hshape)
    cfg = make_cfg(g, dt=10.0 ** log_dt, theta_B=walls)
    state = random_state(g, rng, cfg)
    for _ in range(n_steps):
        state = step_obm(state, cfg)
    assert "modes" in vars(state) and "column" in vars(state)  # handed over by the step
    want = sine_modes(state.theta1, g)
    assert np.max(np.abs(state.modes - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(state.column, state.theta1.mean(axis=-1))
    assert float(g.w3 @ state.column) == mean_arr(state.theta1, g)

    rebuilt = ObmState(g, state.theta1, state.b1, state.chi, state.t)
    carried, fresh = step_obm(state, cfg), step_obm(rebuilt, cfg)
    scale = np.max(np.abs(carried.theta1))
    assert np.max(np.abs(carried.theta1 - fresh.theta1)) <= 1e-13 * scale
    assert np.array_equal(carried.b1, fresh.b1)

    other = rng.standard_normal(g.shape)
    for moved, theta1 in ((replace(state, theta1=other), other),
                          (replace(state, t=state.t + 1.0), state.theta1)):
        assert "modes" not in vars(moved) and "column" not in vars(moved)
        assert np.array_equal(moved.modes, sine_modes(theta1, g))
        assert np.array_equal(moved.column, theta1.mean(axis=-1))


@settings(max_examples=40, deadline=None)
@given(n1=st.sampled_from([4, 8, 16]), n3=st.integers(5, 33),
       n_steps=st.integers(1, 6), with_source=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_run_matches_public_steps_property(n1, n3, n_steps, with_source, seed):
    """run_obm, which holds one extension scratch for all its steps, gives
    bit for bit the rows and final state of a loop of the public step_obm
    and the row's formulas, with heated non-uniform walls and, when drawn, a
    source; and every state it hands to on_step keeps its theta1, b1, modes
    and column to the end of the run, so no state lives in the scratch."""
    g = strip2(n1, n3)
    rng = np.random.default_rng(seed)
    walls = 0.3 + rng.standard_normal(g.hshape), -0.2 + rng.standard_normal(g.hshape)
    cfg = make_cfg(g, dt=2e-3, t_end=n_steps * 2e-3 * 0.97, theta_B=walls)
    th_src, b_src = rng.standard_normal(g.shape), rng.standard_normal(g.hshape)

    def src(t):
        return {"theta1": np.cos(7.0 * t) * th_src, "b1": np.sin(7.0 * t) * b_src}

    src = src if with_source else None
    state0 = random_state(g, rng, cfg)
    handed = []

    def keep(state):
        handed.append((state, [state.theta1.copy(), state.b1.copy(),
                               state.modes.copy(), state.column.copy()]))

    final, rows = run_obm(state0, cfg, src=src, on_step=keep)
    assert len(rows) == n_steps and all(isinstance(r, obm.ObmRow) for r in rows)

    n, dt = _landing_step(0.0, cfg.t_end, cfg.dt)
    landed = replace(cfg, dt=dt)
    state, want = state0, []
    for _ in range(n):
        new = step_obm(state, landed, src=src)
        d_th = new.theta1 - state.theta1
        d_A = REF.b_bar * (new.b1 - state.b1)
        d_rho = cfg.dpdt * (d_th - mean_arr(d_th, g)) + (d_A - d_A.mean())
        want.append((new.t, mean_arr(new.theta1, g), new.chi, 0.0,
                     obm.magnetic_energy(new),
                     float(np.max(np.abs(d_rho))) / (cfg.dpdr * dt)))
        state = new
    assert rows == want
    assert np.array_equal(final.theta1, state.theta1)
    assert np.array_equal(final.b1, state.b1)
    assert np.array_equal(final.modes, state.modes)
    assert (final.chi, final.t) == (state.chi, state.t)
    for kept, arrays in handed:
        for got, copy in zip((kept.theta1, kept.b1, kept.modes, kept.column), arrays):
            assert np.array_equal(got, copy)


def test_second_order_in_dt():
    """Self-convergence of the IMEX stepper on a coupled smooth run."""
    g = strip2(16, 33)
    c = g.coords()
    th0 = 0.3 * np.sin(np.pi * c["x3"]) * (1 + 0.5 * np.cos(np.pi * c["x1"]))
    th0 = np.broadcast_to(th0, g.shape).copy()
    b0 = 0.2 * np.cos(np.pi * g.x1)

    def final(dt):
        cfg = make_cfg(g, dt=dt, t_end=0.02)
        st = ObmState.create(g, th0, b0, gas=GAS, ref=REF)
        st, _ = run_obm(st, cfg)
        return st.theta1.copy()

    ref = final(1.25e-4)
    errs = [np.max(np.abs(final(dt) - ref)) for dt in (4e-3, 2e-3, 1e-3)]
    r1 = np.log2(errs[0] / errs[1])
    r2 = np.log2(errs[1] / errs[2])
    assert 1.7 < r1 < 2.3
    assert 1.7 < r2 < 2.4


def test_mean_temperature_matches_1d_oracle():
    """Non-local drift: the x1-independent slice problem against an
    independent fine finite-difference integration."""
    g = strip2(8, 257)
    cfg = make_cfg(g, dt=5e-4, t_end=0.1)
    th0 = np.broadcast_to(0.3 * np.sin(np.pi * g.x3)[:, None], g.shape).copy()
    st = ObmState.create(g, th0, gas=GAS, ref=REF)
    st, rows = run_obm(st, cfg)
    got = mean_arr(st.theta1, g)

    alpha, cp = thermo.alpha_cp(REF, GAS)
    kap = float(thermo.kappa(REF.theta_bar, GAS))
    dpdt = float(thermo.dp_dtheta(REF.rho_bar, REF.theta_bar, GAS))
    dedt = float(thermo.de_dtheta(REF.rho_bar, REF.theta_bar, GAS))
    _, _, want, _ = solve_heat_mean(
        lambda x: 0.3 * np.sin(np.pi * x), 0.1,
        kappa=kap, rho_cp=REF.rho_bar * float(cp),
        alpha_term=REF.theta_bar * float(alpha) * dpdt,
        rho_dedt=REF.rho_bar * dedt)
    assert abs(got - want) < 1e-4 * abs(want)


def test_run_rows_and_energies():
    g = strip2(16, 17)
    cfg = make_cfg(g, dt=1e-3, t_end=0.01)
    st = initial_state(cfg)
    st, rows = run_obm(st, cfg)
    assert len(rows) == 10
    t, mth, chi, ke, me, res = rows[-1]
    assert t == pytest.approx(0.01)
    assert ke == 0.0  # degenerate slice mode carries no velocity
    assert me > 0.0
    assert chi == pytest.approx(
        compute_chi(st.theta1, g, GAS, REF))


@pytest.mark.parametrize("dt, t_end, n_steps", [(0.03, 0.1, 4), (0.4, 0.1, 1),
                                                 (1e-3, 0.01, 10)])
def test_run_lands_on_t_end(dt, t_end, n_steps):
    g = strip2(16, 17)
    cfg = make_cfg(g, dt=dt, t_end=t_end)
    st, rows = run_obm(initial_state(cfg), cfg)
    assert len(rows) == n_steps
    assert st.t == pytest.approx(t_end, rel=1e-14)
    assert rows[-1][0] == st.t


@given(t=st.floats(-1e3, 1e3), span=st.floats(1e-9, 1e3),
       dt_max=st.floats(1e-6, 1e3))
def test_landing_step_property(t, span, dt_max):
    """Equal steps of at most dt_max (up to the rule's relative 1e-9 slack)
    that add up to t_end - t; nothing is left to step afterward."""
    t_end = t + span
    n, dt = _landing_step(t, t_end, dt_max)
    remaining = t_end - t
    if remaining <= 1e-12:
        assert (n, dt) == (0, 0.0)
        return
    assert n >= 1
    assert 0.0 < dt <= dt_max * (1.0 + 1e-9)
    assert abs(n * dt - remaining) <= 4 * np.finfo(float).eps * remaining
    # one step fewer would have to exceed dt_max
    assert n == 1 or remaining / (n - 1) > dt_max
    assert _landing_step(t_end, t_end, dt_max) == (0, 0.0)

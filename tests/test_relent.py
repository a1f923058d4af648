"""Relative-energy functional, coercivity, and the side-by-side study."""

import multiprocessing
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from obmlab import mhd, relent, thermo
from obmlab.fields import FieldError, Geometry, Grid, mean_arr
from obmlab.obm import ObmConfig, ObmState
from obmlab.relent import (
    CoercivityConstants,
    RelEnergyReport,
    TestQuadruple,
    bregman_density,
    coercivity_margins,
    compatibility_residual,
    compute_coercivity,
    convergence_study,
    ess_mask_arrays,
    ess_res_split,
    rel_energy_arrays,
    rel_energy_density,
    rel_energy_total,
    quadruple_from_obm,
    well_prepared_data,
)

from malformed import BAD, malformed
from thermo_oracle import theta_from_rho_S

GAS = thermo.GasParams(p_inf=1.0, a=0.0)
REF = thermo.ReferenceState(1.0, 1.0, b_bar=0.5)


def strip(n1=16, n3=17):
    return Grid(Geometry.STRIP2, n1, n3=n3)


def make_cfg(g, G=None, dt=2e-3, t_end=0.04):
    if G is None:
        c = g.coords()
        G = np.broadcast_to(0.5 - c["x3"], g.shape).copy()
    zero = np.zeros(g.hshape)
    return ObmConfig(g, GAS, REF, G, (zero, zero), dt=dt, t_end=t_end)


def wavy_profiles(g, t_amp=0.1, b_amp=0.25):
    c = g.coords()
    theta1 = t_amp * np.sin(np.pi * c["x3"]) * (1.0 + 0.5 * np.cos(np.pi * c["x1"]))
    b1 = b_amp * np.cos(np.pi * g.x1)
    return np.broadcast_to(theta1, g.shape).copy(), b1


# -- density kernel --------------------------------------------------------------


def test_bregman_exact_zero_at_coincidence():
    rng = np.random.default_rng(0)
    rho = rng.uniform(0.2, 4.0, 500)
    th = rng.uniform(0.2, 4.0, 500)
    assert np.all(bregman_density(rho, th, rho, th, GAS) == 0.0)


def test_rel_energy_magnetic_term_isolated():
    rng = np.random.default_rng(1)
    n = 200
    rho = rng.uniform(0.5, 2.0, n)
    th = rng.uniform(0.5, 2.0, n)
    u = rng.standard_normal((3, n))
    delta = rng.standard_normal((3, n))
    eps = 0.3
    dens = rel_energy_arrays(rho, u, th, delta, rho, u, th,
                             np.zeros((3, n)), eps, GAS)
    want = 0.5 * np.sum(delta**2, axis=0) / eps**2
    assert np.allclose(dens, want, rtol=1e-14, atol=0.0)


def test_rel_energy_kinetic_term_isolated():
    rng = np.random.default_rng(2)
    n = 200
    rho = rng.uniform(0.5, 2.0, n)
    th = rng.uniform(0.5, 2.0, n)
    B = rng.standard_normal((3, n))
    delta = rng.standard_normal((3, n))
    U = rng.standard_normal((3, n))
    dens = rel_energy_arrays(rho, U + delta, th, B, rho, U, th, B, 0.5, GAS)
    want = 0.5 * rho * np.sum(delta**2, axis=0)
    assert np.allclose(dens, want, rtol=1e-14, atol=0.0)


def test_density_nonnegative_on_random_states():
    rng = np.random.default_rng(3)
    n = 10_000
    rho = rng.uniform(0.1, 5.0, n)
    th = rng.uniform(0.1, 5.0, n)
    u = rng.standard_normal((3, n))
    B = rng.standard_normal((3, n))
    r = rng.uniform(0.5, 2.0, n)
    T = rng.uniform(0.5, 2.0, n)
    U = rng.standard_normal((3, n))
    H = rng.standard_normal((3, n))
    dens = rel_energy_arrays(rho, u, th, B, r, U, T, H, 0.4, GAS)
    assert float(np.min(dens)) > -1e-12


def test_density_strictly_positive_for_single_variable_deviations():
    # deviation of 1e-3 in any one variable must give strictly positive energy
    rng = np.random.default_rng(4)
    n = 50
    r = rng.uniform(0.75, 1.5, n)
    T = rng.uniform(0.75, 1.5, n)
    U = rng.standard_normal((3, n))
    H = rng.standard_normal((3, n))
    base = dict(rho=r.copy(), u=U.copy(), theta=T.copy(), B=H.copy())
    for name in ("rho", "theta", "u", "B"):
        pert = {k: v.copy() for k, v in base.items()}
        if name in ("rho", "theta"):
            pert[name] = pert[name] + 1e-3
        else:
            pert[name] = pert[name] + np.array([1e-3, 0.0, 0.0])[:, None]
        dens = rel_energy_arrays(pert["rho"], pert["u"], pert["theta"],
                                 pert["B"], r, U, T, H, 0.5, GAS)
        assert float(np.min(dens)) > 1e-9, name


def test_bregman_matches_fd_hessian_quadratic_form():
    """Small perturbations reproduce the quadratic form of the conservative
    energy; the Hessian comes from an independent finite-difference oracle
    in (rho, S) variables through the entropy inversion."""
    rng = np.random.default_rng(5)

    def energy_of_conservative(rho, S):
        th = theta_from_rho_S(rho, S, GAS)
        return float(thermo.rho_e_total(rho, th, GAS))

    for _ in range(20):
        r = rng.uniform(0.75, 1.5)
        T = rng.uniform(0.75, 1.5)
        S_r = float(thermo.rho_s_total(r, T, GAS))
        h_r, h_s = 1e-4 * r, 1e-4 * max(1.0, abs(S_r))
        f = energy_of_conservative
        f0 = f(r, S_r)
        hrr = (f(r + h_r, S_r) - 2 * f0 + f(r - h_r, S_r)) / h_r**2
        hss = (f(r, S_r + h_s) - 2 * f0 + f(r, S_r - h_s)) / h_s**2
        hrs = (f(r + h_r, S_r + h_s) - f(r + h_r, S_r - h_s)
               - f(r - h_r, S_r + h_s) + f(r - h_r, S_r - h_s)) / (4 * h_r * h_s)
        drho, dth = 1e-3 * rng.uniform(-1.0, 1.0, 2)
        rho, th = r + drho, T + dth
        z = np.array([rho - r, float(thermo.rho_s_total(rho, th, GAS)) - S_r])
        quad = 0.5 * (hrr * z[0]**2 + 2 * hrs * z[0] * z[1] + hss * z[1]**2)
        got = float(bregman_density(rho, th, r, T, GAS))
        assert got == pytest.approx(quad, rel=1e-3)


# -- essential / residual --------------------------------------------------------


def test_ess_mask_examples():
    rho = np.array([1.0, 3.0, 0.4, 1.9])
    th = np.array([1.0, 1.0, 1.0, 0.6])
    assert list(ess_mask_arrays(rho, th, REF)) == [True, False, False, True]


def test_partition_is_exact():
    g = strip()
    cfg = make_cfg(g)
    theta1, b1 = wavy_profiles(g)
    prim, limit, _ = well_prepared_data(theta1, b1, cfg, 0.3)
    # push part of the state into the residual set
    rho = prim.rho.copy()
    rho[5:8, 2:6] = 3.0
    prim = type(prim)(grid=g, rho=rho, u=prim.u, theta=prim.theta, a=prim.a,
                      c3=prim.c3, B2=prim.B2, eps=prim.eps, t=prim.t)
    quad = quadruple_from_obm(limit, cfg, 0.3)
    mask, e_ess, e_res = ess_res_split(prim, quad, GAS, REF)
    assert not mask[5:8, 2:6].any()
    total = rel_energy_total(prim, quad, GAS)
    assert e_res > 0.0
    assert abs(total - (e_ess + e_res)) < 1e-12 * (1.0 + abs(total))


def test_near_reference_state_is_all_essential():
    g = strip()
    cfg = make_cfg(g)
    theta1, b1 = wavy_profiles(g)
    prim, limit, _ = well_prepared_data(theta1, b1, cfg, 0.1)
    quad = quadruple_from_obm(limit, cfg, 0.1)
    mask, e_ess, e_res = ess_res_split(prim, quad, GAS, REF)
    assert mask.all()
    assert e_res == 0.0


# -- coercivity ------------------------------------------------------------------


def test_coercivity_constants_positive_and_cached():
    cc = compute_coercivity(GAS, REF)
    assert cc.c_ess > 0.0
    assert cc.c_res > 0.0
    assert cc.c_ess <= min(0.25 * REF.rho_bar, 0.5)
    assert cc.hess_floor > 0.0 and cc.pair_floor > 0.0 and cc.res_floor > 0.0
    assert compute_coercivity(GAS, REF) is cc


def test_coercivity_essential_margin_positive():
    # random essential perturbations of size 0.1 around inner-box tests
    rng = np.random.default_rng(6)
    cc = compute_coercivity(GAS, REF)
    n = 10_000
    r = rng.uniform(0.75, 1.5, n)
    T = rng.uniform(0.75, 1.5, n)
    rho = r + rng.uniform(-0.1, 0.1, n)
    th = T + rng.uniform(-0.1, 0.1, n)
    U = rng.standard_normal((3, n))
    u = U + 0.1 * rng.standard_normal((3, n))
    H = rng.standard_normal((3, n))
    B = H + 0.1 * rng.standard_normal((3, n))
    rep = coercivity_margins(rho, u, th, B, r, U, T, H, 0.3, GAS, REF, cc)
    assert rep.n_ess == n and rep.n_res == 0
    assert rep.margin_ess >= 0.0
    assert rep.min_density > -1e-12
    assert rep.ok


def test_coercivity_residual_margin_positive():
    rng = np.random.default_rng(7)
    cc = compute_coercivity(GAS, REF)
    n = 1000
    # residual states: a 4*rho_bar patch plus wide log-uniform extremes
    rho = np.concatenate([np.full(n // 2, 4.0 * REF.rho_bar),
                          REF.rho_bar * np.exp(rng.uniform(np.log(1e-2), np.log(1e2), n // 2))])
    th = np.concatenate([rng.uniform(0.5, 2.0, n // 2),
                         REF.theta_bar * np.exp(rng.uniform(np.log(1e-2), np.log(1e2), n // 2))])
    outside = ~ess_mask_arrays(rho, th, REF)
    rho, th = rho[outside], th[outside]
    m = rho.size
    assert m > n // 2
    r = rng.uniform(0.75, 1.5, m)
    T = rng.uniform(0.75, 1.5, m)
    uU = rng.standard_normal((3, m))
    BH = rng.standard_normal((3, m))
    rep = coercivity_margins(rho, uU, th, BH, r, uU, T, BH, 0.3, GAS, REF, cc)
    assert rep.n_res == m
    assert rep.margin_res > 0.0


def test_coercivity_check_on_solver_state():
    g = strip()
    cfg = make_cfg(g)
    theta1, b1 = wavy_profiles(g)
    prim, limit, _ = well_prepared_data(theta1, b1, cfg, 0.2)
    quad = quadruple_from_obm(limit, cfg, 0.2)
    rep = coercivity_margins(prim.rho, prim.u, prim.theta, prim.B, quad.r, quad.U,
                             quad.Theta, quad.H, prim.eps, GAS, REF,
                             compute_coercivity(GAS, REF))
    assert rep.n_ess == prim.rho.size and rep.n_res == 0
    assert rep.ok


# -- test quadruple validation ---------------------------------------------------


def test_quadruple_rejects_bad_fields():
    g = strip()
    shape = (3,) + g.shape
    ones = np.ones(g.shape)
    U = np.zeros(shape)
    H = np.zeros(shape)
    H[2] = 0.5
    TestQuadruple(g, ones, ones, U, H)  # admissible
    with pytest.raises(FieldError):
        TestQuadruple(g, -ones, ones, U, H)
    with pytest.raises(FieldError):
        bad = U.copy()
        bad[2, 0] = 1.0  # wall-normal flow
        TestQuadruple(g, ones, ones, bad, H)
    with pytest.raises(FieldError):
        bad = H.copy()
        bad[0, 0] = 1.0  # tangential field at the wall
        TestQuadruple(g, ones, ones, U, bad)
    with pytest.raises(FieldError):
        bad = H.copy()
        c = g.coords()
        bad[0] = np.sin(np.pi * c["x3"]) * np.sin(np.pi * c["x1"])  # div != 0
        TestQuadruple(g, ones, ones, U, bad)
    with pytest.raises(FieldError):
        TestQuadruple(g, ones, ones, U, H,
                      wall_theta=(np.full(g.hshape, 2.0), np.ones(g.hshape)))


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", ["r", "Theta", "U", "H"])
def test_quadruple_rejects_a_field_of_wrong_shape_or_non_finite(name, bad):
    g = strip()
    fields = {"r": np.ones(g.shape), "Theta": np.ones(g.shape),
              "U": np.zeros((3,) + g.shape), "H": np.zeros((3,) + g.shape)}
    fields[name], match = malformed(fields[name], bad)
    with pytest.raises(FieldError, match=match.format(name=name)):
        TestQuadruple(g, **fields)


def test_state_and_quadruple_on_different_grids_are_rejected():
    g, other = strip(), strip(16, 9)
    state = mhd.PrimitiveState(g, np.ones(g.shape), np.zeros((3,) + g.shape),
                               np.ones(g.shape), np.zeros(g.shape), 0.5,
                               np.zeros(g.shape), 0.5, 0.0)
    quad = TestQuadruple(other, np.ones(other.shape), np.ones(other.shape),
                         np.zeros((3,) + other.shape), np.zeros((3,) + other.shape))
    with pytest.raises(FieldError, match="different grids"):
        rel_energy_total(state, quad, GAS)


def test_rel_energy_report_validation():
    t = np.linspace(0.0, 1.0, 5)
    e = np.full(5, 2.0)
    RelEnergyReport(t, e, 0.5 * e, 0.5 * e)
    with pytest.raises(FieldError):
        RelEnergyReport(t, e, e, e)  # partition broken
    with pytest.raises(FieldError):
        RelEnergyReport(t, -e, -0.5 * e, -0.5 * e)
    with pytest.raises(FieldError):
        RelEnergyReport(t, e[:-1], e[:-1], np.zeros(4))


# -- well-prepared data ----------------------------------------------------------


def test_well_prepared_zero_profiles_is_rest_equilibrium():
    g = strip()
    cfg = make_cfg(g, G=np.zeros(g.shape))
    prim, limit, info = well_prepared_data(np.zeros(g.shape), np.zeros(g.hshape),
                                           cfg, 0.2)
    assert np.array_equal(prim.rho, np.full(g.shape, REF.rho_bar))
    assert np.array_equal(prim.theta, np.full(g.shape, REF.theta_bar))
    assert np.all(prim.u == 0.0)
    assert np.max(np.abs(prim.B[2] - REF.b_bar)) < 1e-14
    assert info["rel_energy0"] < 1e-28
    assert np.all(limit.theta1 == 0.0) and np.all(limit.b1 == 0.0)


def test_well_prepared_compatibility_residual_small():
    g = strip(32, 33)
    cfg = make_cfg(g)
    theta1, b1 = wavy_profiles(g)
    res = compatibility_residual(theta1, b1, cfg)
    assert np.max(np.abs(res)) < 1e-12
    prim, limit, info = well_prepared_data(theta1, b1, cfg, 0.1)
    assert info["compat_residual"] < 1e-10


def test_well_prepared_initial_energy_roundoff_zero():
    # the prepared pair shares its first-order fields, so the initial
    # relative energy sits at rounding level for every eps; the values are
    # recorded rather than ordered since both are numerically zero
    g = strip()
    cfg = make_cfg(g)
    theta1, b1 = wavy_profiles(g)
    for eps in (0.2, 0.1):
        _, _, info = well_prepared_data(theta1, b1, cfg, eps)
        assert info["rel_energy0"] < 1e-25


def test_well_prepared_rejects_bad_inputs():
    g = strip()
    cfg = make_cfg(g)
    theta1, b1 = wavy_profiles(g)
    bad_theta = theta1 + 0.05  # nonzero trace against zero wall data
    with pytest.raises(FieldError):
        well_prepared_data(bad_theta, b1, cfg, 0.1)
    with pytest.raises(FieldError):
        well_prepared_data(theta1, b1, cfg, -0.1)
    # the limit state it builds checks the shapes
    with pytest.raises(FieldError, match="theta1 shape"):
        well_prepared_data(theta1[1:], b1, cfg, 0.1)
    with pytest.raises(FieldError, match="b1 shape"):
        well_prepared_data(theta1, b1[1:], cfg, 0.1)


def test_quadruple_from_obm_satisfies_invariants():
    g = strip()
    cfg = make_cfg(g)
    theta1, b1 = wavy_profiles(g)
    _, limit, _ = well_prepared_data(theta1, b1, cfg, 0.2)
    quad = quadruple_from_obm(limit, cfg, 0.2)
    assert np.all(quad.U == 0.0)
    assert np.max(np.abs(quad.Theta[0] - REF.theta_bar)) == 0.0
    assert abs(mean_arr(quad.r, g) - REF.rho_bar) < 1e-12


# -- convergence study -----------------------------------------------------------


def test_convergence_study_smoke():
    g = strip()
    cfg = make_cfg(g, dt=2e-3, t_end=0.04)
    theta1, b1 = wavy_profiles(g)
    rep = convergence_study(theta1, b1, cfg, [0.4, 0.2], n_snap=4)
    assert rep.complete
    assert len(rep.entries) == 2
    for e in rep.entries:
        assert e.failed is None
        assert np.all(e.report.E_total >= 0.0)
        assert len(e.report.times) == 5
        assert e.monitors["mass_drift"] < 1e-12
        assert e.monitors["divB_max"] < 1e-8
        assert e.monitors["entropy_prod_min"] >= -1e-14
        assert e.monitors["compat_residual"] < 1e-10
        assert set(e.deviations) == {"rho", "theta", "u", "B"}
    sups = rep.sup_energies()
    assert sups[1] < sups[0]
    assert rep.rate is not None


def test_convergence_study_zero_profiles_stay_at_zero():
    g = strip()
    cfg = make_cfg(g, G=np.zeros(g.shape), dt=2e-3, t_end=0.02)
    rep = convergence_study(np.zeros(g.shape), np.zeros(g.hshape), cfg,
                            [0.4, 0.2], n_snap=2)
    for e in rep.entries:
        assert e.sup_E < 1e-22
    assert rep.rate is None  # zero energies carry no slope


def test_convergence_study_partial_report_on_failure():
    g = strip()
    cfg = make_cfg(g, dt=2e-3, t_end=0.02)
    theta1, b1 = wavy_profiles(g, t_amp=0.2)
    # eps = 20 drives theta negative at construction; the entry is tagged
    # and the remaining Mach numbers still run
    rep = convergence_study(theta1, b1, cfg, [20.0, 0.2], n_snap=2)
    assert not rep.complete
    assert rep.entries[0].failed is not None
    assert rep.entries[1].failed is None
    assert rep.rate is None


def test_convergence_study_validates_eps_list():
    g = strip()
    cfg = make_cfg(g)
    theta1, b1 = wavy_profiles(g)
    with pytest.raises(FieldError):
        convergence_study(theta1, b1, cfg, [0.1, 0.2])
    with pytest.raises(FieldError):
        convergence_study(theta1, b1, cfg, [])


@given(n_snap=st.one_of(
    st.integers(max_value=0),
    st.integers(min_value=1, max_value=50).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.just(np.float64(4.0)),
))
def test_convergence_study_rejects_a_bad_n_snap(n_snap):
    """n_snap must be an int >= 1: 0 used to return an unstepped study
    reported as complete, -2 and 2.5 died inside numpy."""
    g = strip()
    theta1, b1 = wavy_profiles(g)
    with pytest.raises(FieldError, match="n_snap must be an integer >= 1"):
        convergence_study(theta1, b1, make_cfg(g), [0.4, 0.2], n_snap=n_snap)


def run_study(monkeypatch, cpus, eps_list, on_entry=None):
    """convergence_study on 16x17 as if ``cpus`` CPUs were usable; also
    returns, per entry handed out, whether worker processes were alive."""
    monkeypatch.setattr(relent, "_usable_cpus", lambda: cpus)
    g = strip()
    theta1, b1 = wavy_profiles(g)
    pooled = []

    def seen(entry):
        pooled.append(bool(multiprocessing.active_children()))
        if on_entry is not None:
            on_entry(entry)

    rep = convergence_study(theta1, b1, make_cfg(g, dt=2e-3, t_end=0.02), eps_list,
                            n_snap=4, on_entry=seen)
    return rep, pooled


@pytest.mark.parametrize("eps_list", [[0.4, 0.2, 0.1], [20.0, 0.2]])
def test_inline_and_parallel_studies_agree_exactly(monkeypatch, eps_list):
    """The entries computed in forked workers equal those computed in this
    process bit for bit, in the same order, failed entries included."""
    inline, pooled_inline = run_study(monkeypatch, 1, eps_list)
    parallel, pooled = run_study(monkeypatch, 3, eps_list)
    assert pooled_inline == [False] * len(eps_list)
    assert pooled == [True] * len(eps_list)
    assert not multiprocessing.active_children()
    assert [e.eps for e in parallel.entries] == eps_list
    assert parallel.rate == inline.rate
    assert (parallel.rate is None) == (eps_list[0] == 20.0)
    for a, b in zip(inline.entries, parallel.entries):
        assert a.eps == b.eps and a.failed == b.failed
        for name in ("times", "E_total", "E_ess", "E_res"):
            assert np.array_equal(getattr(a.report, name), getattr(b.report, name))
        for table in ("deviations", "monitors"):
            x, y = getattr(a, table), getattr(b, table)
            assert x.keys() == y.keys()
            assert all(np.array_equal(x[k], y[k], equal_nan=True) for k in x)
    assert [e.failed is None for e in parallel.entries] == [e != 20.0 for e in eps_list]


def test_worker_exception_reaches_the_caller_with_its_type(monkeypatch):
    """An error that is not a solver failure is not folded into the entry:
    raised in a worker, it reaches the caller as itself."""
    real = relent.ess_res_split

    def split(state, test, gas, ref):
        if state.eps == 0.2:
            raise thermo.ThermoDomainError("split refused at eps = 0.2")
        return real(state, test, gas, ref)

    monkeypatch.setattr(relent, "ess_res_split", split)
    with pytest.raises(thermo.ThermoDomainError, match="split refused at eps = 0.2"):
        run_study(monkeypatch, 2, [0.4, 0.2])
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_on_entry_error_stops_the_running_workers(monkeypatch, error):
    """An exception in the parent while an entry still runs in a worker
    stops that worker: the call raises at once and leaves no process."""
    real = relent.run_prim

    def run_prim(state, cfg, t_end):
        if state.eps == 0.2 and state.t == 0:
            time.sleep(60.0)  # far longer than the test may take
        return real(state, cfg, t_end=t_end)

    def on_entry(entry):
        raise error(f"stop at eps = {entry.eps:g}")

    monkeypatch.setattr(relent, "run_prim", run_prim)
    start = time.perf_counter()
    with pytest.raises(error, match="stop at eps = 0.4"):
        run_study(monkeypatch, 2, [0.4, 0.2], on_entry)
    assert time.perf_counter() - start < 30.0
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("cpus", [1, 2])
def test_collapsed_dt_fails_its_entry_alone(monkeypatch, cpus):
    """A CFL bound that collapses to 5e-324 after the first step at
    eps = 0.2 marks that entry failed; the other entry completes."""
    real = mhd._cfl_limit
    monkeypatch.setattr(
        mhd, "_cfl_limit",
        lambda state, w: 5e-324 if state.t > 0 and state.eps == 0.2 else real(state, w))
    rep, _ = run_study(monkeypatch, cpus, [0.4, 0.2])
    first, second = rep.entries
    assert first.failed is None and len(first.report.times) == 5
    assert second.failed.startswith("CflError: the automatic dt collapsed to 4.941e-324 "
                                    "after step 1")
    assert len(second.report.times) == 1  # the record at t = 0 alone
    assert rep.rate is None
    assert not multiprocessing.active_children()

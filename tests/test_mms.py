"""Tests for the manufactured-solution cases and refinement sweeps."""

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obmlab import mms, thermo
from obmlab.fields import FieldError, Geometry, Grid, ddx1_arr, ddx3_arr
from obmlab.mhd import run_prim
from obmlab.obm import run_obm

GAS = thermo.GasParams(p_inf=1.0, a=0.0)
REF = thermo.ReferenceState(rho_bar=1.0, theta_bar=1.0, b_bar=0.5)


def entry(closed_form, key):
    """One entry of a closed form that returns a dict, as a callable of
    (t, x1, x3)."""
    return lambda t, x1, x3: closed_form(t, x1, x3)[key]


def observed_orders(errors, spacings):
    """Observed orders between adjacent refinement levels."""
    return np.log(errors[:-1] / errors[1:]) / np.log(spacings[:-1] / spacings[1:])


@pytest.fixture(scope="module")
def prim_case():
    return mms.PrimCase(gas=GAS, ref=REF)


@pytest.fixture(scope="module")
def obm_case():
    return mms.ObmCase(gas=GAS, ref=REF)


# -- exact fields ---------------------------------------------------------------


def test_prim_fields_respect_walls(prim_case):
    g = Grid(Geometry.STRIP2, n1=16, n3=17)
    f = prim_case.fields(0.37, g)
    assert np.max(np.abs(f["u"][2, 0])) < 1e-14
    assert np.max(np.abs(f["u"][2, -1])) < 1e-14
    assert np.max(np.abs(f["B2"][0])) < 1e-14
    assert np.max(np.abs(f["B2"][-1])) < 1e-14
    tb = prim_case.ref.theta_bar
    assert np.max(np.abs(f["theta"][0] - tb)) < 1e-13
    assert np.max(np.abs(f["theta"][-1] - tb)) < 1e-13


def test_prim_wall_slopes_vanish(prim_case):
    # theta and the flux-function source must have zero wall-normal slope;
    # probe the closed forms just inside each wall (quadratic departure only)
    d = 1e-5
    for x3w in (0.0, 1.0):
        inside = x3w + d if x3w == 0.0 else x3w - d
        for tv, x1v in ((0.0, 0.3), (0.8, -0.55)):
            th = prim_case.exact(tv, x1v, np.array([inside, x3w]))["theta"]
            assert abs(th[0] - th[1]) < 1e-8
            sa = prim_case.sources(tv, x1v, np.array([inside, x3w]))["a"]
            assert abs(sa[0] - sa[1]) < 1e-8


def test_prim_initial_state_divergence_free(prim_case):
    g = Grid(Geometry.STRIP2, n1=32, n3=33)
    state = prim_case.state(0.3, g)
    B = state.B
    div = ddx1_arr(B[0], g) + ddx3_arr(B[2], g)
    assert np.max(np.abs(div)) < 1e-12


def test_obm_fields_respect_walls(obm_case):
    g = Grid(Geometry.STRIP2, n1=16, n3=17)
    f = obm_case.fields(1.2, g)
    assert np.max(np.abs(f["theta1"][0])) < 1e-14
    assert np.max(np.abs(f["theta1"][-1])) < 1e-14
    assert abs(f["b1"].mean()) < 1e-15


def test_cases_reject_wrong_geometry(prim_case, obm_case):
    torus = Grid(Geometry.TORUS2, n1=16, n2=16)
    with pytest.raises(FieldError):
        prim_case.fields(0.0, torus)
    with pytest.raises(FieldError):
        obm_case.fields(0.0, torus)


# -- source oracles -------------------------------------------------------------


def test_prim_case_rejects_a_gas_with_another_structural_function():
    """The compressible sources are built for the default P, so a gas whose
    P is the default one scaled by 1.2 is refused at construction."""

    @dataclass(frozen=True)
    class ScaledP(thermo.DefaultPStructure):
        def value(self, Z):
            return 1.2 * super().value(Z)

        def deriv(self, Z):
            return 1.2 * super().deriv(Z)

    @dataclass(frozen=True)
    class ScaledGas(thermo.GasParams):
        def structure(self):
            return ScaledP(p_inf=self.p_inf, s0=self.s0)

    with pytest.raises(FieldError, match="structural function"):
        mms.PrimCase(gas=ScaledGas(p_inf=1.0, a=0.0), ref=REF)


@pytest.mark.parametrize("which", ["prim", "obm"])
def test_source_hook_evaluates_each_time_once(which, prim_case, obm_case, monkeypatch):
    """A limit run asks for the sources at its n + 1 step times and a
    compressible run at those and its n mid-step stage times, 2n + 1 in all,
    each evaluated once; the kept fields give the same run as fresh ones: no
    solver writes to them."""
    case = prim_case if which == "prim" else obm_case
    grid = Grid(Geometry.STRIP2, n1=16, n3=9)
    times = []
    evaluate = mms._evaluate

    def counted(fns, tval, grid):
        if fns == case.sources:
            times.append(tval)
        return evaluate(fns, tval, grid)
    monkeypatch.setattr(mms, "_evaluate", counted)

    def run(src):
        if which == "prim":
            return run_prim(case.state(0.0, grid), case.config(grid), 0.04, src=src)
        return run_obm(case.state(0.0, grid), case.config(grid, 0.01, 0.05), src=src)

    state, rows = run(case.source(grid))
    assert len(rows) >= 3
    distinct = 2 * len(rows) + 1 if which == "prim" else len(rows) + 1
    assert len(times) == len(set(times)) == distinct
    fresh, _ = run(lambda tval: evaluate(case.sources, tval, grid))
    for name in ("rho", "u", "theta", "a", "B2") if which == "prim" else ("theta1", "b1"):
        assert np.array_equal(getattr(state, name), getattr(fresh, name))


def test_prim_continuity_source_matches_fd(prim_case):
    # independent route: central differences of the exact callables
    rng = np.random.default_rng(11)
    tv = rng.uniform(0.0, 1.0, 40)
    x1 = rng.uniform(-1.0, 1.0, 40)
    x3 = rng.uniform(0.1, 0.9, 40)
    h = 1e-5
    e = partial(entry, prim_case.exact)

    def flux1(tt, xx, zz):
        return e("rho")(tt, xx, zz) * e("u1")(tt, xx, zz)

    def flux3(tt, xx, zz):
        return e("rho")(tt, xx, zz) * e("u3")(tt, xx, zz)

    fd = (e("rho")(tv + h, x1, x3) - e("rho")(tv - h, x1, x3)) / (2 * h) \
        + (flux1(tv, x1 + h, x3) - flux1(tv, x1 - h, x3)) / (2 * h) \
        + (flux3(tv, x1, x3 + h) - flux3(tv, x1, x3 - h)) / (2 * h)
    assert np.allclose(fd, prim_case.sources(tv, x1, x3)["rho"], atol=1e-7)


def test_prim_flux_source_matches_fd(prim_case):
    # hand-built Ohm's law chain: S_a = d_t a + zeta(theta) J2 - (u x B)_2
    rng = np.random.default_rng(12)
    tv = rng.uniform(0.0, 1.0, 40)
    x1 = rng.uniform(-1.0, 1.0, 40)
    x3 = rng.uniform(0.1, 0.9, 40)
    bb = prim_case.ref.b_bar
    h = 1e-4
    e = partial(entry, prim_case.exact)
    a = e("a")
    dt_a = (a(tv + h, x1, x3) - a(tv - h, x1, x3)) / (2 * h)
    d11_a = (a(tv, x1 + h, x3) - 2 * a(tv, x1, x3) + a(tv, x1 - h, x3)) / h ** 2
    d33_a = (a(tv, x1, x3 + h) - 2 * a(tv, x1, x3) + a(tv, x1, x3 - h)) / h ** 2
    B1 = -(a(tv, x1, x3 + h) - a(tv, x1, x3 - h)) / (2 * h)
    B3 = bb + (a(tv, x1 + h, x3) - a(tv, x1 - h, x3)) / (2 * h)
    J2 = -d33_a - d11_a
    zet = GAS.zeta_low * (1.0 + e("theta")(tv, x1, x3))
    fd = dt_a + zet * J2 - (e("u3")(tv, x1, x3) * B1 - e("u1")(tv, x1, x3) * B3)
    assert np.allclose(fd, prim_case.sources(tv, x1, x3)["a"], atol=1e-6)


def test_obm_sources_closed_form(obm_case):
    # dual route: hand product rule and hand wall-flux integral against the
    # closed forms, including the sign of the magnetic-head coupling
    g = Grid(Geometry.STRIP2, n1=16, n3=17)
    c = g.coords()
    rb, tb, bb = REF.rho_bar, REF.theta_bar, REF.b_bar
    alpha, cp = thermo.alpha_cp(REF, GAS)
    kap = float(thermo.kappa(tb, GAS))
    zet = float(thermo.zeta(tb, GAS))
    dpdt = float(thermo.dp_dtheta(rb, tb, GAS))
    dedt = float(thermo.de_dtheta(rb, tb, GAS))
    pi = np.pi
    for tv in (0.0, 0.31, 1.7):
        env = 1.0 + 0.5 * np.sin(2 * tv)
        ken = 1.0 + 0.5 * np.cos(3 * tv)
        s3, c1 = np.sin(pi * c["x3"]), np.cos(pi * c["x1"])
        dth = 0.1 * 2.0 * 0.5 * np.cos(2 * tv) * s3 * (1 + 0.5 * c1)
        lap = -0.1 * env * pi ** 2 * s3 * (1 + c1)
        lap_head = -bb * 0.05 * ken * pi ** 2 * c1
        drift = kap * (-0.2 * pi * env) / (rb * dedt)
        want = dth - (kap * lap - tb * alpha * zet * lap_head
                      + tb * alpha * dpdt * drift) / (rb * cp)
        got = obm_case.sources(tv, c["x1"], c["x3"])["theta1"]
        assert np.allclose(got, np.broadcast_to(want, g.shape), rtol=1e-12,
                           atol=1e-14)

        db = 0.05 * (-1.5) * np.sin(3 * tv) * np.cos(pi * g.x1)
        want_b = db + zet * 0.05 * ken * pi ** 2 * np.cos(pi * g.x1)
        assert np.allclose(obm_case.sources(tv, g.x1, 0.0)["b1"], want_b,
                           rtol=1e-12, atol=1e-14)


# one gas and reference set each: the defaults; radiation with another p_inf
# and beta; other transport coefficients and reference values
ORACLE_SETS = (
    (thermo.GasParams(), thermo.ReferenceState()),
    (thermo.GasParams(a=0.3, p_inf=2.0, beta=2.5), thermo.ReferenceState()),
    (thermo.GasParams(mu_low=0.02, mu_high=0.1, kappa_low=0.03, kappa_high=0.2,
                      zeta_low=0.07, zeta_high=0.1),
     thermo.ReferenceState(rho_bar=1.3, theta_bar=0.8, b_bar=0.9)),
)


@lru_cache(maxsize=None)
def symbolic_cases(which):
    """(closed-form case, sympy exact, sympy sources) for both cases."""
    pytest.importorskip("sympy")
    import mms_oracle
    gas, ref = ORACLE_SETS[which]
    prim = mms.PrimCase(gas=gas, ref=ref)
    return ((prim, *mms_oracle.prim(gas, ref, prim.eps)),
            (mms.ObmCase(gas=gas, ref=ref), *mms_oracle.obm(gas, ref)))


@pytest.mark.parametrize("which", range(len(ORACLE_SETS)))
@settings(max_examples=40, deadline=None)
@given(points=st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(-1.0, 1.0),
                                 st.one_of(st.sampled_from((0.0, 1.0)),
                                           st.floats(0.0, 1.0))),
                       min_size=1, max_size=16))
def test_closed_forms_match_sympy_oracle(which, points):
    """Every exact field and source of both cases agrees with the sympy
    derivation to 1e-12 of the field's largest magnitude over the sample,
    at random (t, x1, x3) with the wall rows x3 = 0 and 1 included."""
    t, x1, x3 = np.array(points).T
    for case, exact, sources in symbolic_cases(which):
        for mine, theirs in ((case.exact(t, x1, x3), exact),
                             (case.sources(t, x1, x3), sources)):
            assert set(mine) == set(theirs)
            for key, fn in theirs.items():
                want = np.broadcast_to(fn(t, x1) if key == "b1" else fn(t, x1, x3),
                                       t.shape)
                # subnormal values carry no 12 digits: never below the
                # smallest normal float
                scale = max(np.max(np.abs(want)), np.finfo(float).tiny)
                assert np.max(np.abs(mine[key] - want)) <= 1e-12 * scale, key


# -- refinement sweeps ----------------------------------------------------------


def test_prim_vertical_second_order(prim_case):
    tab = mms.prim_vertical(prim_case)
    assert tab.ns == (33, 65, 129)
    assert np.all(np.diff(tab.combined) < 0)
    assert np.all(tab.combined > 1e-12)
    assert np.all(tab.orders > 1.8) and np.all(tab.orders < 2.2)
    for name in ("theta", "a", "u"):
        fo = observed_orders(tab.errors[name], tab.spacings)
        assert np.all(fo > 1.8) and np.all(fo < 2.2)


def test_obm_vertical_second_order(obm_case):
    tab = mms.obm_vertical(obm_case)
    assert np.all(np.diff(tab.combined) < 0)
    assert np.all(tab.combined > 1e-12)
    assert np.all(tab.orders > 1.8) and np.all(tab.orders < 2.2)
    fo = observed_orders(tab.errors["b1"], tab.spacings)
    assert np.all(fo > 1.8) and np.all(fo < 2.2)


def test_prim_horizontal_floor(prim_case):
    tab = mms.prim_horizontal(prim_case)
    assert tab.axis == "n1"
    assert tab.floor_ratio < 1.25


def test_obm_horizontal_floor(obm_case):
    tab = mms.obm_horizontal(obm_case)
    # the strip limit system is linear, so the floor is exact
    assert tab.floor_ratio < 1.01


def test_table_bookkeeping(obm_case):
    tab = mms.obm_vertical(obm_case, n3_list=(9, 17), t_end=0.02)
    assert len(tab.combined) == 2 and len(tab.orders) == 1
    assert set(tab.errors) == {"theta1", "b1"}
    assert tab.spacings[0] == pytest.approx(1.0 / 8.0)
    assert tab.floor_ratio >= 1.0

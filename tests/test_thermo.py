"""Equation-of-state and transport-law checks.

Frozen derivative values below were cross-derived with sympy (symbolic
differentiation of the closed-form model) and central finite differences;
the test suite re-verifies them against the finite-difference oracle at
runtime so the closed forms, the oracle, and the frozen constants agree.
"""

from __future__ import annotations

import numpy as np
import pytest

from obmlab import thermo
from obmlab.thermo import (
    DefaultPStructure,
    GasParams,
    ReferenceState,
    ThermoDomainError,
    alpha_cp,
    de_drho,
    de_dtheta,
    dp_drho,
    dp_dtheta,
    ds_drho,
    ds_dtheta,
    entropy,
    gibbs_residual,
    internal_energy,
    kappa,
    mu,
    pressure,
    rho_e_total,
    rho_s_total,
    cancellation_summands,
    heat_flux_identity_residual,
    thermo_check,
    zeta,
)

from thermo_oracle import theta_from_rho_S

GAS_CANON = GasParams(p_inf=1.0, a=0.0)
REF_CANON = ReferenceState(rho_bar=1.0, theta_bar=1.0, b_bar=1.0)


def test_structural_P_values():
    P = GAS_CANON.structure()
    assert P.value(0.0) == 0.0
    assert P.value(1.0) == pytest.approx(2.0, abs=1e-15)
    st = GasParams(p_inf=0.7).structure()
    # (5/3 P - P' Z)/Z is the constant 2/3 for this structural family
    for Z in (0.1, 1.0, 10.0):
        ated = (5.0 / 3.0) * st.value(Z) - st.deriv(Z) * Z
        assert ated / Z == pytest.approx(2.0 / 3.0, abs=1e-13)


def test_pressure_values():
    gas_rad = GasParams(p_inf=1.0, a=3.0)
    assert pressure(0.0, 2.0, gas_rad) == pytest.approx(16.0, rel=1e-14)
    assert pressure(1.0, 1.0, gas_rad) == pytest.approx(3.0, rel=1e-14)
    assert pressure(8.0, 4.0, GAS_CANON) == pytest.approx(8 * 4 + 8 ** (5 / 3), rel=1e-14)


def test_pressure_closed_form_matches_structural_route():
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.1, 5.0, 64)
    theta = rng.uniform(0.1, 5.0, 64)
    gas = GasParams(p_inf=0.8, a=0.2)
    closed = rho * theta + gas.p_inf * rho ** (5.0 / 3.0) + (gas.a / 3.0) * theta ** 4
    assert np.allclose(pressure(rho, theta, gas), closed, rtol=1e-13)


def test_internal_energy_values():
    assert internal_energy(1.0, 1.0, GAS_CANON) == pytest.approx(3.0, rel=1e-14)
    gas_rad_only = GasParams(p_inf=1e-12, a=3.0)
    # radiation energy a*theta^4/rho: 3*1.5^4/1.5... pick rho=2, theta=1: a/rho*1 = 1.5
    assert internal_energy(2.0, 1.0, gas_rad_only) == pytest.approx(
        1.5 * (1.0 + 1e-12 * 2.0 ** (2.0 / 3.0)) + 3.0 / 2.0, rel=1e-9)


def test_molecular_pressure_energy_relation():
    rng = np.random.default_rng(11)
    rho = rng.uniform(0.05, 8.0, 50)
    theta = rng.uniform(0.05, 8.0, 50)
    gas = GasParams(p_inf=1.3, a=0.4)
    p_mol = pressure(rho, theta, gas) - (gas.a / 3.0) * theta ** 4
    e_mol = rho_e_total(rho, theta, gas) - gas.a * theta ** 4
    assert np.allclose(p_mol, (2.0 / 3.0) * e_mol, rtol=1e-13)


def test_entropy_values_and_scaling():
    assert entropy(1.0, 1.0, GAS_CANON) == pytest.approx(0.0, abs=1e-15)
    # molecular entropy depends on rho, theta only through Z = rho/theta^{3/2}
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.2, 2.0, 20)
    theta = rng.uniform(0.2, 2.0, 20)
    s1 = entropy(rho, theta, GAS_CANON)
    s2 = entropy(8.0 * rho, 4.0 * theta, GAS_CANON)
    assert np.allclose(s1, s2, atol=1e-13)


def test_entropy_slope_negative():
    st = DefaultPStructure(p_inf=2.0)
    for Z in (0.1, 1.0, 10.0):
        assert st.entropy_deriv(Z) < 0


FROZEN_DERIVS = {
    # reference point rho=1, theta=1, p_inf=1, a=0; oracle: symbolic
    # differentiation of the closed forms, double-checked by central
    # finite differences in test_derivatives_vs_fd_oracle.
    "dp_drho": 8.0 / 3.0,
    "dp_dtheta": 1.0,
    "de_dtheta": 1.5,
    "ds_drho": -1.0,
    "ds_dtheta": 1.5,
}


def test_frozen_derivative_values():
    assert dp_drho(1.0, 1.0, GAS_CANON) == pytest.approx(FROZEN_DERIVS["dp_drho"], abs=1e-14)
    assert dp_dtheta(1.0, 1.0, GAS_CANON) == pytest.approx(FROZEN_DERIVS["dp_dtheta"], abs=1e-14)
    assert de_dtheta(1.0, 1.0, GAS_CANON) == pytest.approx(FROZEN_DERIVS["de_dtheta"], abs=1e-14)
    assert ds_drho(1.0, 1.0, GAS_CANON) == pytest.approx(FROZEN_DERIVS["ds_drho"], abs=1e-14)
    assert ds_dtheta(1.0, 1.0, GAS_CANON) == pytest.approx(FROZEN_DERIVS["ds_dtheta"], abs=1e-14)


@pytest.mark.parametrize("gas", [GAS_CANON, GasParams(p_inf=0.6, a=0.3, s0=1.1)])
def test_derivatives_vs_fd_oracle(gas):
    rng = np.random.default_rng(17)
    rho = rng.uniform(0.5, 2.0, 100)
    theta = rng.uniform(0.5, 2.0, 100)
    h = 1e-5

    def fd(f, wrt):
        if wrt == "rho":
            return (f(rho + h, theta, gas) - f(rho - h, theta, gas)) / (2 * h)
        return (f(rho, theta + h, gas) - f(rho, theta - h, gas)) / (2 * h)

    pairs = [
        (dp_drho, pressure, "rho"),
        (dp_dtheta, pressure, "theta"),
        (de_drho, internal_energy, "rho"),
        (de_dtheta, internal_energy, "theta"),
        (ds_drho, entropy, "rho"),
        (ds_dtheta, entropy, "theta"),
    ]
    for deriv, base, wrt in pairs:
        got = deriv(rho, theta, gas)
        ref = fd(base, wrt)
        err = np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))
        assert err < 1e-7, f"{deriv.__name__} vs FD: {err:.2e}"


def test_thermodynamic_stability_wide_range():
    rng = np.random.default_rng(23)
    rho = np.concatenate([rng.uniform(0.01, 100.0, 1000), np.geomspace(0.01, 100, 40)])
    theta = np.concatenate([rng.uniform(0.01, 100.0, 1000), np.geomspace(100, 0.01, 40)])
    gas = GasParams(p_inf=1.0, a=0.5)
    assert np.all(dp_drho(rho, theta, gas) > 0)
    assert np.all(de_dtheta(rho, theta, gas) > 0)


@pytest.mark.parametrize("gas", [GAS_CANON, GasParams(p_inf=2.0, a=1.0, s0=-0.5)])
def test_gibbs_residual_closed_form(gas):
    rng = np.random.default_rng(29)
    rho = rng.uniform(0.5, 2.0, 100)
    theta = rng.uniform(0.5, 2.0, 100)
    res_t, res_r = gibbs_residual(rho, theta, gas)
    assert np.max(np.abs(res_t)) < 1e-12
    assert np.max(np.abs(res_r)) < 1e-12


def test_alpha_cp_canonical():
    alpha, cp = alpha_cp(REF_CANON, GAS_CANON)
    assert alpha == pytest.approx(3.0 / 8.0, abs=1e-15)
    assert cp == pytest.approx(15.0 / 8.0, abs=1e-15)
    rb, tb = REF_CANON.rho_bar, REF_CANON.theta_bar
    ident = rb * cp - tb * alpha * float(dp_dtheta(rb, tb, GAS_CANON))
    assert ident == pytest.approx(rb * float(de_dtheta(rb, tb, GAS_CANON)), abs=1e-14)


def test_alpha_cp_positive_random_refs():
    rng = np.random.default_rng(31)
    for _ in range(50):
        ref = ReferenceState(rho_bar=rng.uniform(0.2, 3.0), theta_bar=rng.uniform(0.2, 3.0), b_bar=0.0)
        gas = GasParams(p_inf=rng.uniform(0.1, 3.0), a=rng.uniform(0.0, 1.0))
        alpha, cp = alpha_cp(ref, gas)
        assert alpha > 0 and cp > 0


def test_cancellation_canonical_summands():
    first, second = cancellation_summands(REF_CANON, GAS_CANON)
    assert first == pytest.approx(-0.3, abs=1e-14)
    assert second == pytest.approx(0.3, abs=1e-14)


def test_closure_identities_random_refs():
    rng = np.random.default_rng(37)
    for _ in range(100):
        ref = ReferenceState(rho_bar=rng.uniform(0.2, 4.0), theta_bar=rng.uniform(0.2, 4.0), b_bar=0.0)
        gas = GasParams(p_inf=rng.uniform(0.1, 4.0), a=rng.uniform(0.0, 2.0), s0=rng.uniform(-1, 1))
        a, b = cancellation_summands(ref, gas)
        assert abs(a + b) < 1e-12
        assert abs(heat_flux_identity_residual(ref, gas)) < 1e-12


def test_transport_values_and_bounds():
    gas = GasParams(mu_low=0.3, mu_high=0.5, kappa_low=1.0, kappa_high=2.0,
                    zeta_low=0.1, zeta_high=0.4, beta=3.0)
    assert mu(0.0, gas) == pytest.approx(0.3)
    assert kappa(1.0, gas) == pytest.approx(2.0)
    assert zeta(2.0, gas) == pytest.approx(0.3)
    theta = np.linspace(0.0, 10.0, 101)
    assert np.all(mu(theta, gas) >= gas.mu_low * (1 + theta) - 1e-15)
    assert np.all(mu(theta, gas) <= gas.mu_high * (1 + theta) + 1e-15)
    assert np.all(kappa(theta, gas) >= gas.kappa_low * (1 + theta ** 3) - 1e-12)
    assert np.all(kappa(theta, gas) <= gas.kappa_high * (1 + theta ** 3) + 1e-12)
    assert np.all(zeta(theta, gas) <= gas.zeta_high * (1 + theta) + 1e-15)


def test_kappa_beta_configurable():
    gas = GasParams(kappa_low=2.0, kappa_high=2.0, beta=6.5)
    assert kappa(2.0, gas) == pytest.approx(2.0 * (1 + 2.0 ** 6.5), rel=1e-14)


def test_domain_errors():
    with pytest.raises(ThermoDomainError):
        pressure(1.0, -1.0, GAS_CANON)
    with pytest.raises(ThermoDomainError):
        pressure(-1.0, 1.0, GAS_CANON)
    with pytest.raises(ThermoDomainError):
        entropy(0.0, 1.0, GAS_CANON)
    with pytest.raises(ThermoDomainError):
        internal_energy(0.0, 1.0, GAS_CANON)
    with pytest.raises(ThermoDomainError):
        pressure(np.array([1.0, np.nan]), np.array([1.0, 1.0]), GAS_CANON)
    with pytest.raises(ThermoDomainError):
        mu(-0.5, GAS_CANON)


def test_param_validation():
    with pytest.raises(ThermoDomainError):
        GasParams(a=-1.5)
    with pytest.raises(ThermoDomainError):
        GasParams(p_inf=0.0)
    with pytest.raises(ThermoDomainError):
        GasParams(mu_low=0.8, mu_high=0.5)
    with pytest.raises(ThermoDomainError):
        ReferenceState(rho_bar=-1.0)


def test_vacuum_safe_totals():
    gas = GasParams(p_inf=1.0, a=0.9)
    assert rho_e_total(0.0, 2.0, gas) == pytest.approx(0.9 * 16.0, rel=1e-14)
    assert rho_s_total(0.0, 2.0, gas) == pytest.approx((4 * 0.9 / 3) * 8.0, rel=1e-14)
    # rho*s -> 0 continuously as rho -> 0 for a = 0
    small = rho_s_total(1e-300, 1.0, GAS_CANON)
    assert abs(small) < 1e-290


def test_theta_from_rho_S_roundtrip():
    rng = np.random.default_rng(41)
    gas = GasParams(p_inf=0.9, a=0.3, s0=0.2)
    rho = rng.uniform(0.3, 3.0, 40)
    theta = rng.uniform(0.3, 3.0, 40)
    S = rho * entropy(rho, theta, gas)
    back = theta_from_rho_S(rho, S, gas)
    assert np.allclose(back, theta, rtol=1e-11)


def test_thermo_check_passes():
    rep = thermo_check(GasParams(p_inf=1.2, a=0.1), ReferenceState(), seed=7)
    assert rep.passed, "\n".join(rep.lines())


def test_thermo_check_detects_entropy_slope_fault():
    class Tampered(DefaultPStructure):
        def entropy_deriv(self, Z):
            return super().entropy_deriv(Z) * 1.01  # perturbs s only

    class TamperedGas(GasParams):
        def structure(self):
            return Tampered(p_inf=self.p_inf, s0=self.s0)

    rep = thermo_check(TamperedGas(p_inf=1.0, a=0.0), ReferenceState(), seed=7)
    assert not rep.passed
    failed = {name for name, ok, _, _ in rep.results if not ok}
    assert any("gibbs" in n for n in failed)


def test_thermo_check_accepts_shifted_entropy_constant():
    # adding a constant to s leaves every Gibbs relation intact
    rep = thermo_check(GasParams(p_inf=1.0, a=0.0, s0=4.2), ReferenceState(), seed=7)
    assert rep.passed, "\n".join(rep.lines())

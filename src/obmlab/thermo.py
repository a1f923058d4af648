"""Equation of state, entropy, and transport coefficients.

The gas model combines a molecular part, generated by a structural function
P acting on the degeneracy variable Z = rho / theta**(3/2), with a radiative
part proportional to theta**4:

    p(rho, theta)     = theta**(5/2) * P(Z) + (a/3) * theta**4
    rho * e(rho, theta) = (3/2) * theta**(5/2) * P(Z) + a * theta**4
    s(rho, theta)     = S(Z) + (4*a/3) * theta**3 / rho

with S'(Z) = -(3/2) * (ated := (5/3) * P(Z) - P'(Z) * Z) / Z**2.  The default
structural function

    P(Z) = Z + p_inf * Z**(5/3)

keeps everything in closed form: p = rho*theta + p_inf*rho**(5/3) + (a/3)*theta**4
and S(Z) = s0 - log(Z).  The molecular pressure-energy relation
p_M = (2/3) * rho * e_M and the Gibbs relation

    theta * Ds = De + p * D(1/rho)

hold identically and are re-checked numerically by :func:`thermo_check`.

P belongs to the gas: every function reads it from :meth:`GasParams.structure`,
so another law is a :class:`GasParams` subclass whose ``structure`` returns
the four methods of :class:`DefaultPStructure` (P, P', S and S').

All evaluation functions are numpy-vectorized, accept floats or arrays, and
raise :class:`ThermoDomainError` outside their physical domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ThermoDomainError",
    "GasParams",
    "ReferenceState",
    "DefaultPStructure",
    "pressure",
    "internal_energy",
    "entropy",
    "rho_e_total",
    "rho_s_total",
    "dp_drho",
    "dp_dtheta",
    "de_drho",
    "de_dtheta",
    "ds_drho",
    "ds_dtheta",
    "gibbs_residual",
    "alpha_cp",
    "cancellation_summands",
    "heat_flux_identity_residual",
    "mu",
    "eta",
    "kappa",
    "zeta",
    "thermo_check",
    "ThermoCheckReport",
]


class ThermoDomainError(ValueError):
    """Raised when state variables leave the physical domain."""


def _arr(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class GasParams:
    """Constants of the gas model and its transport laws.

    p_inf scales the degenerate (cold-pressure) component, a the radiative
    component, s0 the entropy additive constant.  Transport laws are affine
    in temperature,

        mu(theta)    = mu_low    * (1 + theta)
        eta(theta)   = 0
        kappa(theta) = kappa_low * (1 + theta**beta)
        zeta(theta)  = zeta_low  * (1 + theta)

    which sit on the lower envelope of the admissible two-sided growth
    bounds; the *_high constants define the upper envelope used only for
    validation.
    """

    p_inf: float = 1.0
    a: float = 0.0
    s0: float = 0.0
    mu_low: float = 0.05
    mu_high: float = 0.05
    eta_high: float = 0.0
    kappa_low: float = 0.05
    kappa_high: float = 0.05
    beta: float = 3.0
    zeta_low: float = 0.05
    zeta_high: float = 0.05

    def __post_init__(self) -> None:
        if not self.p_inf > 0:
            raise ThermoDomainError(f"p_inf must be > 0, got {self.p_inf}")
        if not self.a >= 0:
            raise ThermoDomainError(f"a must be >= 0, got {self.a}")
        if not 0 < self.mu_low <= self.mu_high:
            raise ThermoDomainError("need 0 < mu_low <= mu_high")
        if not self.eta_high >= 0:
            raise ThermoDomainError("eta_high must be >= 0")
        if not 0 < self.kappa_low <= self.kappa_high:
            raise ThermoDomainError("need 0 < kappa_low <= kappa_high")
        if not self.beta > 0:
            raise ThermoDomainError(f"beta must be > 0, got {self.beta}")
        if not 0 < self.zeta_low <= self.zeta_high:
            raise ThermoDomainError("need 0 < zeta_low <= zeta_high")

    def structure(self) -> "DefaultPStructure":
        """The structural function P of this gas, with its entropy S."""
        return DefaultPStructure(p_inf=self.p_inf, s0=self.s0)


@dataclass(frozen=True)
class ReferenceState:
    """Constant background state the scaled system expands around."""

    rho_bar: float = 1.0
    theta_bar: float = 1.0
    b_bar: float = 0.5

    def __post_init__(self) -> None:
        if not self.rho_bar > 0:
            raise ThermoDomainError(f"rho_bar must be > 0, got {self.rho_bar}")
        if not self.theta_bar > 0:
            raise ThermoDomainError(f"theta_bar must be > 0, got {self.theta_bar}")


@dataclass(frozen=True)
class DefaultPStructure:
    """P(Z) = Z + p_inf * Z**(5/3), S(Z) = s0 - log(Z)."""

    p_inf: float
    s0: float = 0.0

    def value(self, Z):
        Z = _arr(Z)
        return Z + self.p_inf * Z ** (5.0 / 3.0)

    def deriv(self, Z):
        Z = _arr(Z)
        return 1.0 + (5.0 / 3.0) * self.p_inf * Z ** (2.0 / 3.0)

    def entropy(self, Z):
        Z = _arr(Z)
        if np.any(Z <= 0):
            raise ThermoDomainError("entropy needs Z > 0")
        return self.s0 - np.log(Z)

    def entropy_deriv(self, Z):
        Z = _arr(Z)
        if np.any(Z <= 0):
            raise ThermoDomainError("entropy slope needs Z > 0")
        return -1.0 / Z


def _check_rho_theta(rho: np.ndarray, theta: np.ndarray, need_rho_pos: bool) -> None:
    if np.any(~np.isfinite(rho)) or np.any(~np.isfinite(theta)):
        raise ThermoDomainError("non-finite state input")
    if np.any(theta <= 0):
        raise ThermoDomainError("theta must be > 0")
    if need_rho_pos:
        if np.any(rho <= 0):
            raise ThermoDomainError("rho must be > 0")
    elif np.any(rho < 0):
        raise ThermoDomainError("rho must be >= 0")


def _eos_inputs(rho, theta, gas: GasParams, need_rho_pos: bool):
    """Common prologue of the EOS functions: coerce and domain-check
    (rho, theta), take the gas's P, form Z = rho theta^(-3/2)."""
    rho, theta = _arr(rho), _arr(theta)
    _check_rho_theta(rho, theta, need_rho_pos)
    return rho, theta, gas.structure(), rho * theta ** -1.5


# Each EOS formula once, on checked inputs, Pv = P(Z), Pd = P'(Z), the
# molecular pressure p_mol = theta**(5/2) P(Z) and the powers t3 = theta**3
# and t4 = theta**4 of the radiative terms.
def _pressure(p_mol, t4, gas: GasParams):
    return p_mol + (gas.a / 3.0) * t4


def _rho_e(p_mol, t4, gas: GasParams):
    return 1.5 * p_mol + gas.a * t4


def _rho_s(rho, Z, t3, P, gas: GasParams):
    return rho * P.entropy(Z) + (4.0 * gas.a / 3.0) * t3


def _dp_drho(theta, Pd):
    return theta * Pd


def _dtheta_mol(theta, Z, Pv, Pd):
    """Molecular d p / d theta, theta**(3/2) [ (5/2)P - (3/2) Z P' ]."""
    return theta ** 1.5 * (2.5 * Pv - 1.5 * Z * Pd)


def _dp_dtheta(mol, t3, gas: GasParams):
    return mol + (4.0 * gas.a / 3.0) * t3


def _de_dtheta(rho, mol, t3, gas: GasParams):
    return 1.5 * mol / rho + 4.0 * gas.a * t3 / rho


def _transport(theta, gas: GasParams):
    """(mu, eta, kappa, zeta), the four laws of :class:`GasParams`."""
    return (gas.mu_low * (1.0 + theta), np.zeros_like(theta),
            gas.kappa_low * (1.0 + theta ** gas.beta), gas.zeta_low * (1.0 + theta))


def _eos_and_transport(rho, theta, gas: GasParams):
    """(p, dp_drho, dp_dtheta, de_dtheta, rho_e, rho_s, mu, eta, kappa, zeta),
    equal to the public functions' values (rho_e: :func:`rho_e_total`, rho_s:
    :func:`rho_s_total`), from one Z, P(Z) and P'(Z).

    Precondition: rho and theta are finite float arrays with rho > 0 and
    theta > 0.  The solver passes the fields of an
    :class:`obmlab.mhd.PrimitiveState`, which its constructor or
    ``mhd._check_admissible`` has checked, so they are not checked again."""
    P, Z = gas.structure(), rho * theta ** -1.5
    Pv, Pd = P.value(Z), P.deriv(Z)
    mol = _dtheta_mol(theta, Z, Pv, Pd)
    t3, t4 = (theta ** 3, theta ** 4) if gas.a else (0.0, 0.0)  # a = 0: no radiation
    p_mol = theta ** 2.5 * Pv
    return (_pressure(p_mol, t4, gas), _dp_drho(theta, Pd), _dp_dtheta(mol, t3, gas),
            _de_dtheta(rho, mol, t3, gas), _rho_e(p_mol, t4, gas),
            _rho_s(rho, Z, t3, P, gas)) + _transport(theta, gas)


def pressure(rho, theta, gas: GasParams):
    """Total pressure p = theta**(5/2) P(Z) + (a/3) theta**4, rho >= 0."""
    rho, theta, P, Z = _eos_inputs(rho, theta, gas, need_rho_pos=False)
    return _pressure(theta ** 2.5 * P.value(Z), theta ** 4, gas)


def rho_e_total(rho, theta, gas: GasParams):
    """Volumetric internal energy rho*e; safe down to vacuum rho = 0.

    The molecular part shares its subexpression with the pressure, so the
    relation p_M = (2/3) * (rho*e)_M holds to rounding by construction.
    """
    rho, theta, P, Z = _eos_inputs(rho, theta, gas, need_rho_pos=False)
    return _rho_e(theta ** 2.5 * P.value(Z), theta ** 4, gas)


def internal_energy(rho, theta, gas: GasParams):
    """Specific internal energy e(rho, theta), rho > 0."""
    rho, theta = _arr(rho), _arr(theta)
    _check_rho_theta(rho, theta, need_rho_pos=True)
    return rho_e_total(rho, theta, gas) / rho


def entropy(rho, theta, gas: GasParams):
    """Specific entropy s = S(Z) + (4a/3) theta**3 / rho, rho > 0."""
    rho, theta, P, Z = _eos_inputs(rho, theta, gas, need_rho_pos=True)
    return P.entropy(Z) + (4.0 * gas.a / 3.0) * theta ** 3 / rho


def rho_s_total(rho, theta, gas: GasParams):
    """Volumetric entropy rho*s, continuously extended by 0 to rho = 0."""
    rho, theta = _arr(rho), _arr(theta)
    _check_rho_theta(rho, theta, need_rho_pos=False)
    P = gas.structure()
    rho_safe = np.where(rho > 0, rho, 1.0)
    out = _rho_s(rho_safe, rho_safe * theta ** -1.5, theta ** 3, P, gas)
    return np.where(rho > 0, out, (4.0 * gas.a / 3.0) * theta ** 3)


def dp_drho(rho, theta, gas: GasParams):
    """d p / d rho = theta * P'(Z); strictly positive for admissible states."""
    rho, theta, P, Z = _eos_inputs(rho, theta, gas, need_rho_pos=False)
    return _dp_drho(theta, P.deriv(Z))


def dp_dtheta(rho, theta, gas: GasParams):
    """d p / d theta = theta**(3/2) [ (5/2)P - (3/2) Z P' ] + (4a/3) theta**3."""
    rho, theta, P, Z = _eos_inputs(rho, theta, gas, need_rho_pos=False)
    return _dp_dtheta(_dtheta_mol(theta, Z, P.value(Z), P.deriv(Z)), theta ** 3, gas)


def de_drho(rho, theta, gas: GasParams):
    """d e / d rho = (3/2) theta**(5/2) (Z P' - P) / rho**2 - a theta**4 / rho**2."""
    rho, theta, P, Z = _eos_inputs(rho, theta, gas, need_rho_pos=True)
    mol = 1.5 * theta ** 2.5 * (Z * P.deriv(Z) - P.value(Z)) / rho ** 2
    return mol - gas.a * theta ** 4 / rho ** 2


def de_dtheta(rho, theta, gas: GasParams):
    """d e / d theta; strictly positive (thermodynamic stability)."""
    rho, theta, P, Z = _eos_inputs(rho, theta, gas, need_rho_pos=True)
    return _de_dtheta(rho, _dtheta_mol(theta, Z, P.value(Z), P.deriv(Z)), theta ** 3, gas)


def ds_drho(rho, theta, gas: GasParams):
    """d s / d rho = S'(Z) / theta**(3/2) - (4a/3) theta**3 / rho**2."""
    rho, theta, P, Z = _eos_inputs(rho, theta, gas, need_rho_pos=True)
    return P.entropy_deriv(Z) * theta ** -1.5 - (4.0 * gas.a / 3.0) * theta ** 3 / rho ** 2


def ds_dtheta(rho, theta, gas: GasParams):
    """d s / d theta = -(3/2) Z S'(Z) / theta + 4 a theta**2 / rho."""
    rho, theta, P, Z = _eos_inputs(rho, theta, gas, need_rho_pos=True)
    return -1.5 * Z * P.entropy_deriv(Z) / theta + 4.0 * gas.a * theta ** 2 / rho


def gibbs_residual(rho, theta, gas: GasParams):
    """Both residuals of the Gibbs relation theta*Ds = De + p*D(1/rho).

    Returns (theta * ds_dtheta - de_dtheta,
             theta * ds_drho - (de_drho - p / rho**2)); both vanish for a
    thermodynamically consistent model.
    """
    rho, theta = _arr(rho), _arr(theta)
    res_theta = theta * ds_dtheta(rho, theta, gas) - de_dtheta(rho, theta, gas)
    res_rho = theta * ds_drho(rho, theta, gas) - (
        de_drho(rho, theta, gas) - pressure(rho, theta, gas) / rho ** 2)
    return res_theta, res_rho


def alpha_cp(ref: ReferenceState, gas: GasParams):
    """Thermal expansion alpha and heat capacity c_p at the reference state.

        alpha = dp_dtheta / (rho_bar * dp_drho)
        c_p   = de_dtheta + (theta_bar * alpha / rho_bar) * dp_dtheta

    By construction rho_bar*c_p - theta_bar*alpha*dp_dtheta = rho_bar*de_dtheta.
    """
    rb, tb = ref.rho_bar, ref.theta_bar
    pt = float(dp_dtheta(rb, tb, gas))
    pr = float(dp_drho(rb, tb, gas))
    et = float(de_dtheta(rb, tb, gas))
    alpha = pt / (rb * pr)
    cp = et + (tb * alpha / rb) * pt
    return alpha, cp


def cancellation_summands(ref: ReferenceState, gas: GasParams):
    """Summands of the coefficient cancellation used when the momentum and
    heat balances are combined:

        -alpha*de_dtheta/c_p
        - (rho_bar*ds_drho/dp_dtheta) * (1 - theta_bar*alpha*dp_dtheta/(rho_bar*c_p))
          * (dp_dtheta/dp_drho)

    Returns (first_summand, second_summand); their sum vanishes identically.
    """
    rb, tb = ref.rho_bar, ref.theta_bar
    alpha, cp = alpha_cp(ref, gas)
    et = float(de_dtheta(rb, tb, gas))
    pt = float(dp_dtheta(rb, tb, gas))
    pr = float(dp_drho(rb, tb, gas))
    sr = float(ds_drho(rb, tb, gas))
    first = -alpha * et / cp
    second = -(rb * sr / pt) * (1.0 - tb * alpha * pt / (rb * cp)) * (pt / pr)
    return first, second


def heat_flux_identity_residual(ref: ReferenceState, gas: GasParams):
    """Residual of the heat-flux coefficient identity

        (kappa/c_p) * (ds_drho*dp_dtheta/dp_drho - ds_dtheta) = -kappa/theta_bar

    evaluated at the reference state.  Returns lhs - rhs.
    """
    rb, tb = ref.rho_bar, ref.theta_bar
    _, cp = alpha_cp(ref, gas)
    k = float(kappa(tb, gas))
    sr = float(ds_drho(rb, tb, gas))
    st = float(ds_dtheta(rb, tb, gas))
    pt = float(dp_dtheta(rb, tb, gas))
    pr = float(dp_drho(rb, tb, gas))
    lhs = (k / cp) * (sr * pt / pr - st)
    rhs = -k / tb
    return lhs - rhs


def _checked_theta(theta) -> np.ndarray:
    theta = _arr(theta)
    if np.any(~np.isfinite(theta)):
        raise ThermoDomainError("non-finite temperature")
    if np.any(theta < 0):
        raise ThermoDomainError("temperature must be >= 0")
    return theta


def mu(theta, gas: GasParams):
    """Shear viscosity mu_low * (1 + theta)."""
    return _transport(_checked_theta(theta), gas)[0]


def eta(theta, gas: GasParams):
    """Bulk viscosity; identically zero in this model."""
    return _transport(_checked_theta(theta), gas)[1]


def kappa(theta, gas: GasParams):
    """Heat conductivity kappa_low * (1 + theta**beta)."""
    return _transport(_checked_theta(theta), gas)[2]


def zeta(theta, gas: GasParams):
    """Magnetic diffusivity zeta_low * (1 + theta)."""
    return _transport(_checked_theta(theta), gas)[3]


@dataclass
class ThermoCheckReport:
    """Result of the consistency suite: named checks with worst residuals."""

    results: list  # list of (name, passed: bool, worst: float, tol: float)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _, _ in self.results)

    def lines(self) -> list:
        out = []
        for name, ok, worst, tol in self.results:
            out.append(f"{'PASS' if ok else 'FAIL'}  {name:40s}  worst={worst:.3e}  tol={tol:.1e}")
        return out


def thermo_check(gas: GasParams, ref: ReferenceState, seed: int = 0,
                 n_points: int = 100, fd_step: float = 1e-5) -> ThermoCheckReport:
    """Run the full thermodynamic consistency suite.

    Checks, on n_points random states in [0.5, 2]^2 and at the reference
    state: closed-form Gibbs residuals, finite-difference cross-validation
    of all five derivative functions, thermodynamic stability, monotone
    S, the molecular pressure-energy relation, positivity of alpha and c_p,
    the two coefficient identities, and the two-sided transport bounds.
    """
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.5, 2.0, n_points)
    theta = rng.uniform(0.5, 2.0, n_points)
    results = []

    def add(name, worst, tol):
        results.append((name, bool(worst < tol), float(worst), float(tol)))

    res_t, res_r = gibbs_residual(rho, theta, gas)
    add("gibbs closed-form", max(np.max(np.abs(res_t)), np.max(np.abs(res_r))), 1e-12)

    # central finite differences as an independent derivative oracle
    h = fd_step
    fd_pr = (pressure(rho + h, theta, gas) - pressure(rho - h, theta, gas)) / (2 * h)
    fd_pt = (pressure(rho, theta + h, gas) - pressure(rho, theta - h, gas)) / (2 * h)
    fd_et = (internal_energy(rho, theta + h, gas) - internal_energy(rho, theta - h, gas)) / (2 * h)
    fd_er = (internal_energy(rho + h, theta, gas) - internal_energy(rho - h, theta, gas)) / (2 * h)
    fd_sr = (entropy(rho + h, theta, gas) - entropy(rho - h, theta, gas)) / (2 * h)
    fd_st = (entropy(rho, theta + h, gas) - entropy(rho, theta - h, gas)) / (2 * h)

    def rel(a, b):
        return np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))

    worst_fd = max(
        rel(dp_drho(rho, theta, gas), fd_pr),
        rel(dp_dtheta(rho, theta, gas), fd_pt),
        rel(de_dtheta(rho, theta, gas), fd_et),
        rel(de_drho(rho, theta, gas), fd_er),
        rel(ds_drho(rho, theta, gas), fd_sr),
        rel(ds_dtheta(rho, theta, gas), fd_st),
    )
    add("derivatives vs central differences", worst_fd, 1e-7)

    gibbs_fd_t = np.max(np.abs(theta * fd_st - fd_et))
    gibbs_fd_r = np.max(np.abs(theta * fd_sr - (fd_er - pressure(rho, theta, gas) / rho ** 2)))
    add("gibbs vs central differences", max(gibbs_fd_t, gibbs_fd_r), 1e-7)

    add("dp_drho > 0", float(np.max(-dp_drho(rho, theta, gas))) + 1e-300, 0.0 + 1e-12)
    add("de_dtheta > 0", float(np.max(-de_dtheta(rho, theta, gas))) + 1e-300, 1e-12)

    P = gas.structure()
    Z = np.geomspace(1e-2, 1e2, 50)
    add("S' < 0", float(np.max(P.entropy_deriv(Z))) + 1e-300, 1e-12)

    p_mol = pressure(rho, theta, gas) - (gas.a / 3.0) * theta ** 4
    e_mol = rho_e_total(rho, theta, gas) - gas.a * theta ** 4
    add("p_M = (2/3) rho e_M", rel(p_mol, (2.0 / 3.0) * e_mol), 1e-12)

    alpha, cp = alpha_cp(ref, gas)
    add("alpha > 0", -alpha + 1e-300, 1e-12)
    add("c_p > 0", -cp + 1e-300, 1e-12)
    ident = ref.rho_bar * cp - ref.theta_bar * alpha * float(dp_dtheta(ref.rho_bar, ref.theta_bar, gas)) \
        - ref.rho_bar * float(de_dtheta(ref.rho_bar, ref.theta_bar, gas))
    add("rho_bar c_p - theta_bar alpha dp_dtheta = rho_bar de_dtheta", abs(ident), 1e-12)

    s5a, s5b = cancellation_summands(ref, gas)
    add("coefficient cancellation (momentum/heat)", abs(s5a + s5b), 1e-12)
    add("heat-flux coefficient identity", abs(heat_flux_identity_residual(ref, gas)), 1e-12)

    th = rng.uniform(0.0, 5.0, 200)
    envelopes = ((mu(th, gas), gas.mu_low * (1 + th), gas.mu_high * (1 + th)),
                 (eta(th, gas), 0.0, gas.eta_high * (1 + th)),
                 (kappa(th, gas), gas.kappa_low * (1 + th ** gas.beta),
                  gas.kappa_high * (1 + th ** gas.beta)),
                 (zeta(th, gas), gas.zeta_low * (1 + th), gas.zeta_high * (1 + th)))
    worst_tr = max(0.0, *(float(np.max(worst)) for law, low, high in envelopes
                          for worst in (low - law, law - high)))
    add("transport two-sided bounds", worst_tr + 1e-300, 1e-12)

    return ThermoCheckReport(results)

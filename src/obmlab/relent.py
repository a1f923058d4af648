"""Relative energy between a compressible MHD state and a limit-style test state.

The distance functional combines kinetic and magnetic quadratic terms with
the Bregman divergence of the conservative-variable energy rho*e(rho, S),
whose partial derivatives are the temperature (in S) and the specific free
enthalpy e - theta*s + p/rho (in rho).  Convexity of that energy makes the
density pointwise nonnegative, vanishing exactly when state and test agree.

The module provides the density and its essential/residual split, sampled
coercivity constants for both regimes, well-prepared initial data shared by
the compressible and limit solvers, and a study harness that marches both
solvers side by side over a decreasing sequence of Mach numbers and records
how the relative energy and the primitive-variable deviations shrink.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from . import thermo
from .fields import (
    FieldError,
    Grid,
    ddx1_arr,
    ddx3_arr,
    field_array,
    l2_arr,
    mean_arr,
)
from .mhd import (
    CflError,
    PositivityError,
    PrimConfig,
    PrimitiveState,
    a_from_b3_profile,
    fix_flux_walls,
    run_prim,
)
from .obm import (
    ObmConfig,
    ObmState,
    boussinesq_rho,
    run_obm,
)

__all__ = [
    "TestQuadruple",
    "CoercivityConstants",
    "CoercivityReport",
    "RelEnergyReport",
    "StudyEntry",
    "StudyReport",
    "bregman_density",
    "rel_energy_arrays",
    "rel_energy_density",
    "rel_energy_total",
    "ess_mask_arrays",
    "ess_res_split",
    "compute_coercivity",
    "coercivity_margins",
    "compatibility_residual",
    "well_prepared_data",
    "quadruple_from_obm",
    "convergence_study",
]


# ----------------------------------------------------------------------
# test states


@dataclass
class TestQuadruple:
    """Smooth comparison state (r, Theta, U, H) on a strip grid.

    U and H carry three components on the grid shape.  Admissibility is
    checked on construction: positive r and Theta, impermeable walls for U,
    horizontal H components vanishing at the walls, and a divergence-free H.
    ``wall_theta`` optionally pins the temperature trace, as (bottom, top).
    """

    grid: Grid
    r: np.ndarray
    Theta: np.ndarray
    U: np.ndarray
    H: np.ndarray
    wall_theta: tuple | None = None

    __test__ = False  # data type, not a pytest case

    def __post_init__(self):
        g = self.grid
        for what in ("r", "Theta"):
            arr = field_array(getattr(self, what), g.shape, what)
            if np.any(arr <= 0.0):
                raise FieldError(f"{what} must be positive everywhere")
            setattr(self, what, arr)
        self.U = field_array(self.U, (3,) + g.shape, "U")
        self.H = field_array(self.H, (3,) + g.shape, "H")
        if g.has_walls:
            scale = 1.0 + float(np.max(np.abs(self.U)))
            if max(np.max(np.abs(self.U[2, 0])), np.max(np.abs(self.U[2, -1]))) \
                    > 1e-10 * scale:
                raise FieldError("test velocity must satisfy U3 = 0 at the walls")
            hscale = 1.0 + float(np.max(np.abs(self.H)))
            for comp in (0, 1):
                if max(np.max(np.abs(self.H[comp, 0])),
                       np.max(np.abs(self.H[comp, -1]))) > 1e-10 * hscale:
                    raise FieldError(
                        "horizontal test field components must vanish at the walls")
            divH = ddx1_arr(self.H[0], g) + ddx3_arr(self.H[2], g)
            if np.max(np.abs(divH)) > 1e-8 * hscale:
                raise FieldError(
                    f"test field not solenoidal, max |div H| = {np.max(np.abs(divH)):.3e}")
        if self.wall_theta is not None:
            bottom, top = self.wall_theta
            tscale = 1.0 + float(np.max(np.abs(self.Theta)))
            if np.max(np.abs(self.Theta[0] - bottom)) > 1e-10 * tscale or \
                    np.max(np.abs(self.Theta[-1] - top)) > 1e-10 * tscale:
                raise FieldError("test temperature trace does not match the walls")


def quadruple_from_obm(state: ObmState, cfg: ObmConfig, eps: float) -> TestQuadruple:
    """Lift a limit-solver state to a comparison quadruple at Mach number eps.

    The density is reconstructed from the diagnostic balance, the velocity
    is zero (the strip pins the horizontal mean flow), and the field is the
    vertical background plus the perturbation.
    """
    g = cfg.grid
    ref = cfg.ref
    rho1 = boussinesq_rho(state.theta1, state.b1, cfg)
    r = ref.rho_bar + eps * rho1
    Theta = ref.theta_bar + eps * state.theta1
    U = np.zeros((3,) + g.shape)
    H = np.zeros((3,) + g.shape)
    H[2] = ref.b_bar + eps * state.b1
    bottom = ref.theta_bar + eps * cfg.theta_B[0]
    top = ref.theta_bar + eps * cfg.theta_B[1]
    return TestQuadruple(g, r, Theta, U, H,
                         wall_theta=(np.broadcast_to(bottom, g.hshape),
                                     np.broadcast_to(top, g.hshape)))


# ----------------------------------------------------------------------
# the energy density


def bregman_density(rho, theta, r, Theta, gas: thermo.GasParams):
    """Bregman divergence of rho*e between (rho, theta) and (r, Theta).

    Evaluated in natural variables; the generating convex function is the
    energy as a function of (rho, rho*s), so the linearization coefficients
    are Theta and the specific free enthalpy of the test state.  Identical
    inputs give exactly zero because the subtracted terms share their
    floating-point evaluation.
    """
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    r = np.asarray(r, dtype=float)
    Theta = np.asarray(Theta, dtype=float)
    he = thermo.rho_e_total(rho, theta, gas)
    hs = thermo.rho_s_total(rho, theta, gas)
    he_r = thermo.rho_e_total(r, Theta, gas)
    hs_r = thermo.rho_s_total(r, Theta, gas)
    free_enthalpy = (thermo.internal_energy(r, Theta, gas)
                     - Theta * thermo.entropy(r, Theta, gas)
                     + thermo.pressure(r, Theta, gas) / r)
    return he - he_r - free_enthalpy * (rho - r) - Theta * (hs - hs_r)


def rel_energy_arrays(rho, u, theta, B, r, U, Theta, H, eps: float,
                      gas: thermo.GasParams):
    """Pointwise relative energy density on plain arrays.

    u, B, U, H are stacked with the component axis first; the scalar arrays
    may have any common shape.  Kinetic and magnetic terms are quadratic,
    the thermodynamic part is the Bregman divergence scaled by eps^-2.
    """
    du = np.asarray(u, dtype=float) - np.asarray(U, dtype=float)
    dB = np.asarray(B, dtype=float) - np.asarray(H, dtype=float)
    kin = 0.5 * np.asarray(rho, dtype=float) * np.sum(du * du, axis=0)
    mag = 0.5 * np.sum(dB * dB, axis=0) / eps**2
    return kin + mag + bregman_density(rho, theta, r, Theta, gas) / eps**2


def rel_energy_density(state: PrimitiveState, test: TestQuadruple,
                       gas: thermo.GasParams):
    """Relative energy density of a solver state against a test quadruple."""
    if test.grid != state.grid:
        raise FieldError("state and test quadruple live on different grids")
    return rel_energy_arrays(state.rho, state.u, state.theta, state.B,
                             test.r, test.U, test.Theta, test.H,
                             state.eps, gas)


def rel_energy_total(state: PrimitiveState, test: TestQuadruple,
                     gas: thermo.GasParams) -> float:
    """Integrated relative energy over the domain."""
    g = state.grid
    return g.volume * mean_arr(rel_energy_density(state, test, gas), g)


# ----------------------------------------------------------------------
# essential / residual decomposition


def ess_mask_arrays(rho, theta, ref: thermo.ReferenceState):
    """Indicator of the essential box around the reference state.

    True where rho is within [rho_bar/2, 2 rho_bar] and theta within
    [theta_bar/2, 2 theta_bar]; the complement is the residual set.
    """
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return ((rho >= 0.5 * ref.rho_bar) & (rho <= 2.0 * ref.rho_bar)
            & (theta >= 0.5 * ref.theta_bar) & (theta <= 2.0 * ref.theta_bar))


def ess_res_split(state: PrimitiveState, test: TestQuadruple,
                  gas: thermo.GasParams, ref: thermo.ReferenceState):
    """Split the integrated relative energy into essential and residual parts.

    Returns (mask, E_ess, E_res).  The two parts add up to the total by
    construction since the indicator and its complement partition the domain.
    """
    g = state.grid
    dens = rel_energy_density(state, test, gas)
    mask = ess_mask_arrays(state.rho, state.theta, ref)
    w = mask.astype(float)
    e_ess = g.volume * mean_arr(dens * w, g)
    e_res = g.volume * mean_arr(dens * (1.0 - w), g)
    return mask, float(e_ess), float(e_res)


# ----------------------------------------------------------------------
# coercivity constants


@dataclass(frozen=True)
class CoercivityConstants:
    """Sampled lower-bound constants for the two coercivity regimes.

    c_ess multiplies the quadratic deviation on the essential set, c_res the
    affine energy-entropy weight on the residual set.  The floors record the
    raw sampled minima before the safety factor; tests in the residual regime
    assume the comparison state stays in the inner box [3/4, 3/2] times the
    reference values, strictly inside the essential box.
    """

    c_ess: float
    c_res: float
    hess_floor: float
    pair_floor: float
    res_floor: float
    n_pairs: int
    n_res: int


def _fd_hessian_min(r, Theta, gas: thermo.GasParams):
    """Smallest eigenvalue of the (rho, theta) Hessian of rho*e - Theta*rho*s.

    Central second differences at the coincidence point; the matrix is the
    local quadratic form of the Bregman density, positive definite wherever
    dp_drho and de_dtheta are.
    """
    r = np.asarray(r, dtype=float)
    Theta = np.asarray(Theta, dtype=float)

    def phi(rho, theta):
        return thermo.rho_e_total(rho, theta, gas) \
            - Theta * thermo.rho_s_total(rho, theta, gas)

    hr = 1e-5 * r
    ht = 1e-5 * Theta
    f0 = phi(r, Theta)
    frr = (phi(r + hr, Theta) - 2.0 * f0 + phi(r - hr, Theta)) / hr**2
    ftt = (phi(r, Theta + ht) - 2.0 * f0 + phi(r, Theta - ht)) / ht**2
    frt = (phi(r + hr, Theta + ht) - phi(r + hr, Theta - ht)
           - phi(r - hr, Theta + ht) + phi(r - hr, Theta - ht)) / (4.0 * hr * ht)
    half_tr = 0.5 * (frr + ftt)
    disc = np.sqrt(0.25 * (frr - ftt) ** 2 + frt**2)
    return half_tr - disc


@cache
def compute_coercivity(gas: thermo.GasParams,
                       ref: thermo.ReferenceState) -> CoercivityConstants:
    """Sample coercivity constants for a gas law and reference state.

    Essential regime: the ratio of the Bregman density to the squared
    deviation is minimized over random and corner pairs in the box plus
    near-coincident pairs, and cross-checked against half the smallest FD
    Hessian eigenvalue over the box.  Residual regime: the ratio to
    1 + rho*e + rho*|s| is minimized over states outside the box against
    comparison states in the inner box.  A safety factor below one absorbs
    sampling slack.  The sample is fixed, so results are cached per (gas, ref).
    """
    n_pairs, n_res = 40000, 20000
    rng = np.random.default_rng(7)
    rb, tb = ref.rho_bar, ref.theta_bar
    lo = np.array([0.5 * rb, 0.5 * tb])
    hi = np.array([2.0 * rb, 2.0 * tb])

    def ratio_ess(rho, theta, r, Theta):
        dev = (rho - r) ** 2 + (theta - Theta) ** 2
        e = bregman_density(rho, theta, r, Theta, gas)
        return e / dev

    # random pairs plus every corner combination of the box
    pts = lo[None, :, None] + (hi - lo)[None, :, None] \
        * rng.random((2, 2, n_pairs))
    edges = np.stack([np.linspace(lo[i], hi[i], 5) for i in range(2)])
    corner = np.stack(np.meshgrid(*edges, *edges, indexing="ij")).reshape(4, -1)
    keep = ((corner[0] - corner[2]) ** 2 + (corner[1] - corner[3]) ** 2) > 1e-12
    pair_vals = np.concatenate([
        ratio_ess(pts[0, 0], pts[0, 1], pts[1, 0], pts[1, 1]),
        ratio_ess(corner[0, keep], corner[1, keep], corner[2, keep], corner[3, keep]),
    ])
    # near-coincident pairs probe the quadratic regime from random directions
    base = lo[:, None] + (hi - lo)[:, None] * rng.random((2, n_pairs // 4))
    ang = 2.0 * np.pi * rng.random(n_pairs // 4)
    d = 1e-4 * np.stack([np.cos(ang) * rb, np.sin(ang) * tb])
    near = ratio_ess(base[0] + d[0], base[1] + d[1], base[0], base[1])
    pair_floor = float(min(np.min(pair_vals), np.min(near)))

    rr = np.linspace(lo[0], hi[0], 21)
    tt = np.linspace(lo[1], hi[1], 21)
    hess_floor = 0.5 * float(np.min(_fd_hessian_min(
        rr[:, None], tt[None, :], gas)))

    c_thermo = 0.85 * min(pair_floor, hess_floor)
    c_ess = min(c_thermo, 0.25 * rb, 0.5)

    # residual states: log-uniform sweep outside the box, plus points hugging
    # the box boundary from outside; comparison states stay in the inner box
    lr = rng.uniform(np.log(1e-3), np.log(1e3), 2 * n_res)
    lt = rng.uniform(np.log(1e-3), np.log(1e3), 2 * n_res)
    rho_s = rb * np.exp(lr)
    th_s = tb * np.exp(lt)
    outside = ~ess_mask_arrays(rho_s, th_s, ref)
    rho_s, th_s = rho_s[outside], th_s[outside]
    hug_r = np.concatenate([0.5 * rb * (1.0 - 0.2 * rng.random(n_res // 8)),
                            2.0 * rb * (1.0 + 0.2 * rng.random(n_res // 8))])
    in_t = tb * np.exp(rng.uniform(np.log(0.5), np.log(2.0), n_res // 4))
    in_r = rb * np.exp(rng.uniform(np.log(0.5), np.log(2.0), n_res // 4))
    hug_t = np.concatenate([0.5 * tb * (1.0 - 0.2 * rng.random(n_res // 8)),
                            2.0 * tb * (1.0 + 0.2 * rng.random(n_res // 8))])
    rho_s = np.concatenate([rho_s, hug_r, in_r])
    th_s = np.concatenate([th_s, in_t, hug_t])
    m = rho_s.size
    r_t = rng.uniform(0.75 * rb, 1.5 * rb, m)
    t_t = rng.uniform(0.75 * tb, 1.5 * tb, m)
    e = bregman_density(rho_s, th_s, r_t, t_t, gas)
    weight = 1.0 + thermo.rho_e_total(rho_s, th_s, gas) \
        + rho_s * np.abs(thermo.entropy(rho_s, th_s, gas))
    res_floor = float(np.min(e / weight))
    c_res = 0.8 * res_floor

    return CoercivityConstants(c_ess=float(c_ess), c_res=float(c_res),
                               hess_floor=float(hess_floor),
                               pair_floor=pair_floor, res_floor=res_floor,
                               n_pairs=int(pair_vals.size + near.size),
                               n_res=int(m))


@dataclass(frozen=True)
class CoercivityReport:
    """Pointwise margin statistics of the two coercivity inequalities."""

    n_ess: int
    n_res: int
    margin_ess: float
    margin_res: float
    min_density: float

    @property
    def ok(self) -> bool:
        return (self.margin_ess >= 0.0 and self.margin_res >= 0.0
                and self.min_density > -1e-12)


def coercivity_margins(rho, u, theta, B, r, U, Theta, H, eps: float,
                       gas: thermo.GasParams, ref: thermo.ReferenceState,
                       cc: CoercivityConstants) -> CoercivityReport:
    """Margins of the sampled coercivity bounds on plain arrays.

    Essential margin: density minus c_ess times the eps-weighted quadratic
    deviation, minimized over essential points.  Residual margin: Bregman
    part minus c_res times the energy-entropy weight, over residual points.
    """
    dens = rel_energy_arrays(rho, u, theta, B, r, U, Theta, H, eps, gas)
    mask = ess_mask_arrays(rho, theta, ref)
    du = np.asarray(u, dtype=float) - np.asarray(U, dtype=float)
    dB = np.asarray(B, dtype=float) - np.asarray(H, dtype=float)
    quad = (np.sum(du * du, axis=0)
            + (np.sum(dB * dB, axis=0)
               + (np.asarray(rho, float) - np.asarray(r, float)) ** 2
               + (np.asarray(theta, float) - np.asarray(Theta, float)) ** 2) / eps**2)
    margin_ess = np.inf
    if np.any(mask):
        margin_ess = float(np.min((dens - cc.c_ess * quad)[mask]))
    margin_res = np.inf
    res = ~mask
    if np.any(res):
        breg = bregman_density(rho, theta, r, Theta, gas)
        weight = 1.0 + thermo.rho_e_total(rho, theta, gas) \
            + np.asarray(rho, float) * np.abs(thermo.entropy(rho, theta, gas))
        margin_res = float(np.min((breg - cc.c_res * weight)[res]))
    return CoercivityReport(n_ess=int(np.sum(mask)), n_res=int(np.sum(res)),
                            margin_ess=margin_ess, margin_res=margin_res,
                            min_density=float(np.min(dens)))


# ----------------------------------------------------------------------
# well-prepared data


def compatibility_residual(theta1, b1, cfg: ObmConfig) -> np.ndarray:
    """Residual of the first-order force balance for prepared data.

    dp_drho grad(rho1) + dp_dtheta grad(theta1) must balance the potential
    force rho_bar grad(G) plus the Lorentz force of the perturbation field
    against the vertical background.  With rho1 from the diagnostic balance
    the discrete residual vanishes to rounding since all terms share the
    same linear derivative operators.  Returns the (3,)+shape residual.
    """
    g, ref, pr, pt = cfg.grid, cfg.ref, cfg.dpdr, cfg.dpdt
    theta1 = np.asarray(theta1, dtype=float)
    b1s = np.broadcast_to(np.asarray(b1, dtype=float), g.shape)
    rho1 = boussinesq_rho(theta1, np.asarray(b1, dtype=float), cfg)
    res = np.zeros((3,) + g.shape)
    # current of (0, 0, b1) is (0, -d1 b1, 0); crossing with the background
    # gives (-b_bar d1 b1, 0, 0), the gradient of the magnetic head
    res[0] = pr * ddx1_arr(rho1, g) + pt * ddx1_arr(theta1, g) \
        - ref.rho_bar * ddx1_arr(cfg.G, g) + ref.b_bar * ddx1_arr(b1s, g)
    res[2] = pr * ddx3_arr(rho1, g) + pt * ddx3_arr(theta1, g) \
        - ref.rho_bar * ddx3_arr(cfg.G, g) + ref.b_bar * ddx3_arr(b1s, g)
    return res


def well_prepared_data(theta1, b1, cfg: ObmConfig, eps: float):
    """Build matched initial states for both solvers from first-order profiles.

    The compressible state carries rho_bar + eps*rho1 with rho1 from the
    diagnostic balance, temperature theta_bar + eps*theta1, zero velocity,
    and the background-plus-perturbation field through its flux function;
    the limit state carries (theta1, b1) and the zero mean flow that
    :class:`ObmState` requires on the two-dimensional strip.  Returns
    (PrimitiveState, ObmState, info) where info holds the compatibility
    residual norm and the initial relative energy between the two.
    """
    g = cfg.grid
    ref = cfg.ref
    if not eps > 0:
        raise FieldError(f"eps must be positive, got {eps}")
    limit = ObmState.create(g, theta1, b1, gas=cfg.gas, ref=cfg.ref)
    theta1, b1 = limit.theta1, limit.b1
    bottom, top = cfg.theta_B
    tscale = 1.0 + float(np.max(np.abs(theta1)))
    if np.max(np.abs(theta1[0] - bottom)) > 1e-10 * tscale or \
            np.max(np.abs(theta1[-1] - top)) > 1e-10 * tscale:
        raise FieldError("theta1 trace must match the wall temperatures")

    rho1 = boussinesq_rho(theta1, b1, cfg)
    rho = ref.rho_bar + eps * rho1
    theta = ref.theta_bar + eps * theta1
    a, c3 = a_from_b3_profile(ref.b_bar + eps * b1, g)
    a = fix_flux_walls(a)
    prim = PrimitiveState(grid=g, rho=rho, u=np.zeros((3,) + g.shape), theta=theta,
                          a=a, c3=c3, B2=np.zeros(g.shape), eps=eps, t=0.0)
    quad = quadruple_from_obm(limit, cfg, eps)
    info = {
        "compat_residual": float(np.max(np.abs(compatibility_residual(theta1, b1, cfg)))),
        "rel_energy0": rel_energy_total(prim, quad, cfg.gas),
    }
    return prim, limit, info


# ----------------------------------------------------------------------
# side-by-side study


@dataclass
class RelEnergyReport:
    """Relative energy time series with its essential/residual partition.

    Construction checks that the partition reproduces the total and that
    the total stays nonnegative up to rounding.
    """

    times: np.ndarray
    E_total: np.ndarray
    E_ess: np.ndarray
    E_res: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        for name in ("E_total", "E_ess", "E_res"):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if arr.shape != self.times.shape:
                raise FieldError(f"{name} length {arr.shape} != times {self.times.shape}")
        scale = 1.0 + float(np.max(self.E_total, initial=0.0))
        if np.any(self.E_total < -1e-12 * scale):
            raise FieldError("negative relative energy in report")
        gap = np.max(np.abs(self.E_total - self.E_ess - self.E_res), initial=0.0)
        if gap > 1e-12 * scale:
            raise FieldError(f"essential/residual partition broken by {gap:.3e}")

    @property
    def sup_E(self) -> float:
        return float(np.max(self.E_total, initial=0.0))


@dataclass
class StudyEntry:
    """One Mach number of the side-by-side study.

    ``deviations`` maps rho, theta, u and B to their L2 deviations from the
    limit at the final time (empty after a failure); ``monitors`` holds
    compat_residual and rel_energy0 of the initial data, and mass_drift,
    divB_max and entropy_prod_min over the compressible run."""

    eps: float
    report: RelEnergyReport
    deviations: dict = field(default_factory=dict)
    monitors: dict = field(default_factory=dict)
    failed: str | None = None

    @property
    def sup_E(self) -> float:
        return self.report.sup_E

    @property
    def sup_ess(self) -> float:
        return float(np.max(self.report.E_ess, initial=0.0))

    @property
    def sup_res(self) -> float:
        return float(np.max(self.report.E_res, initial=0.0))


@dataclass
class StudyReport:
    """Study over a decreasing sequence of Mach numbers.

    ``rate`` is the least-squares slope of log sup-energy against log eps
    over the entries that completed; it is recorded for inspection, not a
    guaranteed order.
    """

    entries: list
    rate: float | None

    @property
    def complete(self) -> bool:
        return all(e.failed is None for e in self.entries)

    def sup_energies(self) -> np.ndarray:
        return np.array([e.sup_E for e in self.entries])

    def deviations_table(self) -> dict:
        keys = ("rho", "theta", "u", "B")
        return {k: np.array([e.deviations.get(k, np.nan) for e in self.entries])
                for k in keys}


def _study_entry(theta1, b1, cfg: ObmConfig, eps: float, times) -> StudyEntry:
    """One entry of :func:`convergence_study`: both solvers from well-prepared
    data at Mach number eps, synchronized at ``times``."""
    g = cfg.grid
    pcfg = PrimConfig(g, cfg.gas, cfg.ref, cfg.G, cfg.theta_B)
    try:
        prim, limit, info = well_prepared_data(theta1, b1, cfg, eps)
    except (FieldError, thermo.ThermoDomainError) as exc:
        return StudyEntry(eps=eps, report=RelEnergyReport(*[np.zeros(0)] * 4),
                          failed=f"{type(exc).__name__}: {exc}")
    series, rows = [], []  # (t, E_total, E_ess, E_res) per sync; solver rows
    failed = None

    def record(t):
        quad = quadruple_from_obm(limit, cfg, eps)
        _, ee, er = ess_res_split(prim, quad, cfg.gas, cfg.ref)
        series.append((t, ee + er, ee, er))
        return quad

    quad = record(0.0)
    mass0 = g.volume * mean_arr(prim.rho, g)
    for k in range(1, len(times)):
        try:
            prim, new_rows = run_prim(prim, pcfg, t_end=float(times[k]))
            limit, _ = run_obm(limit, replace(cfg, t_end=float(times[k])))
        except (PositivityError, CflError, FieldError) as exc:
            failed = f"{type(exc).__name__}: {exc}"
            break
        quad = record(float(times[k]))
        rows += new_rows
    report = RelEnergyReport(*(np.array(column) for column in zip(*series)))
    deviations = {}
    if failed is None:  # quad is the last sync's, at the final time
        rho1_l = boussinesq_rho(limit.theta1, limit.b1, cfg)
        deviations = {
            "rho": l2_arr((prim.rho - cfg.ref.rho_bar) / eps - rho1_l, g),
            "theta": l2_arr((prim.theta - cfg.ref.theta_bar) / eps - limit.theta1, g),
            "u": l2_arr(np.sqrt(prim.rho) * prim.u, g),  # the limit flow is zero
            "B": l2_arr((prim.B - quad.H) / eps, g),
        }
    monitors = {
        "compat_residual": info["compat_residual"],
        "rel_energy0": info["rel_energy0"],
        "mass_drift": float(abs(rows[-1].mass - mass0)) if rows else np.nan,
        "divB_max": max((r.divB_max for r in rows), default=0.0),
        "entropy_prod_min": min((r.entropy_production for r in rows),
                                default=np.inf),
    }
    return StudyEntry(eps=eps, report=report, deviations=deviations,
                      monitors=monitors, failed=failed)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def convergence_study(theta1, b1, cfg: ObmConfig, eps_list,
                      n_snap: int = 25, on_entry=None) -> StudyReport:
    """March both solvers from shared well-prepared data for each eps.

    For every Mach number in eps_list (strictly decreasing) the compressible
    and limit solvers advance from well-prepared data built on the same
    profiles, synchronized at n_snap+1 uniformly spaced times.  At each
    synchronization the relative energy between the compressible state and
    the lifted limit state is recorded with its essential/residual split.

    Deviations stored per entry (all at the final time): the rescaled
    density and temperature against the limit fields, the momentum-weighted
    velocity, and the rescaled magnetic perturbation.  Monitors: the initial
    compatibility residual and relative energy, and from the compressible
    solver's rows the mass drift, the largest divergence of B and the
    smallest entropy production integral.  A solver failure marks the entry
    and truncates its series; remaining Mach numbers still run.

    The entries are independent, so with more than one of them and more
    than one usable CPU they run side by side in forked worker processes,
    one per CPU at most; elsewhere they run one after the other in this
    process, with the same results.  An entry's cost grows as 1/eps through
    the acoustic bound, so the smallest eps starts first.  Entries reach the
    report, and ``on_entry``, in eps order, each as soon as it and all
    before it are done.  Any other exception from an entry, or from
    ``on_entry``, stops the workers and propagates.
    """
    eps_arr = np.asarray(list(eps_list), dtype=float)
    if eps_arr.size < 1 or np.any(eps_arr <= 0):
        raise FieldError("eps_list must contain positive Mach numbers")
    if np.any(np.diff(eps_arr) >= 0):
        raise FieldError("eps_list must be strictly decreasing")
    if isinstance(n_snap, bool) or not isinstance(n_snap, (int, np.integer)) \
            or n_snap < 1:
        raise FieldError(f"n_snap must be an integer >= 1, got {n_snap!r}")
    times = np.linspace(0.0, cfg.t_end, n_snap + 1)
    entries = []

    def done(entry):
        entries.append(entry)
        if on_entry is not None:
            on_entry(entry)

    workers = min(eps_arr.size, _usable_cpus())
    if workers > 1:
        import multiprocessing  # here, so that importing the package stays lean
        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers == 1:
        for eps in eps_arr:
            done(_study_entry(theta1, b1, cfg, float(eps), times))
    else:
        from concurrent.futures import ProcessPoolExecutor
        # fork, not the platform default: a forked worker has numpy and the
        # package loaded already
        pool = ProcessPoolExecutor(workers,
                                   mp_context=multiprocessing.get_context("fork"))
        try:
            futures = [pool.submit(_study_entry, theta1, b1, cfg, float(eps), times)
                       for eps in eps_arr[::-1]][::-1]
            for future in futures:
                done(future.result())
        except BaseException:
            # a running entry cannot be cancelled; its worker is stopped
            for process in list(pool._processes.values()):
                process.terminate()
            raise
        finally:
            pool.shutdown(cancel_futures=True)
    rate = None
    sups = np.array([e.sup_E for e in entries])
    if all(e.failed is None for e in entries) and np.all(sups > 0) \
            and eps_arr.size >= 2:
        rate = float(np.polyfit(np.log(eps_arr), np.log(sups), 1)[0])
    return StudyReport(entries=entries, rate=rate)

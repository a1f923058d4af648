"""Desk-scale solver for the scaled compressible magneto-fluid system.

Scaling and geometry
--------------------
The primitive system carries the low-Mach/low-Alfven scaling with Mach and
Alfven numbers both equal to eps and Froude number sqrt(eps): pressure and
Lorentz forces enter the momentum balance at 1/eps^2, gravity at 1/eps.
The solver runs on the 2.5D strip (STRIP2): all fields are x2-independent
but vectors keep three components, so the out-of-plane velocity and
magnetic components participate fully.

Magnetic representation
-----------------------
The in-plane magnetic field is stored through a flux function a(x1, x3)
and a constant c3:

    B1 = -d3 a,    B3 = c3 + d1 a,    B2 separate scalar.

Because the horizontal (spectral) and vertical (finite-difference)
derivative operators act along different array axes they commute exactly,
so div B vanishes to rounding at every node and for every time; no
projection is needed, and mean(B3) = c3 is conserved exactly.  The wall
condition B1 = 0 becomes d3 a = 0 at the walls, imposed by solving the
one-sided stencil for the wall value of a; B2 = 0 is imposed directly.

Time stepping is explicit SSP-RK2 with boundary conditions re-imposed
after each stage.  Temperature is advanced in internal-energy form

    rho de_dtheta Dtheta/Dt = -theta dp_dtheta div u + eps^2 S:grad u
                              + div(kappa grad theta) + zeta |curl B|^2

(equivalent to the entropy balance for smooth flows via Gibbs' relation);
the entropy production terms are evaluated diagnostically as explicit
non-negative quadratic forms.  Tangential slip walls use the stress-free
reduction of the Navier condition: the wall rows of d3 u1 and d3 u2 are
zeroed when the viscous stress is assembled, which makes the tangential
stress vanish exactly at the walls (u3 = 0 there already forces
d1 u3 = 0 along the wall).

Mass bookkeeping: the trapezoid rule does not telescope against the
one-sided first-derivative closures, so -div(rho u) carries an O(h^2)
mean defect even though the boundary flux vanishes.  The continuity
tendency subtracts that uniform defect, making total mass conservation
exact to rounding without touching the local truncation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import thermo
from .fields import (
    FieldError,
    Geometry,
    Grid,
    cross3,
    ddx1_arr,
    ddx3_arr,
    dealias_arr,
    mean_arr,
    write_snapshot,
)
from .obm import CflError, _check_potential_and_walls, _landing_step

__all__ = [
    "PositivityError",
    "PrimConfig",
    "PrimitiveState",
    "StepRow",
    "fix_flux_walls",
    "velocity_gradient",
    "entropy_production_terms",
    "cfl_limits",
    "step_prim",
    "run_prim",
    "ballistic_energy",
    "total_energy",
    "psi_extension",
    "a_from_b3_profile",
    "snapshot_fields",
]


class PositivityError(RuntimeError):
    """Raised when a step would lose rho > 0 or theta > 0.

    Carries the last valid state as ``last_valid``."""

    def __init__(self, message, last_valid=None):
        super().__init__(message)
        self.last_valid = last_valid


@dataclass
class PrimConfig:
    grid: Grid
    gas: thermo.GasParams
    ref: thermo.ReferenceState
    G: np.ndarray
    theta_B: tuple  # (bottom, top) wall temperature deviations, hshape each
    safety: float = 0.6  # fraction of the CFL bound used by the run driver

    def __post_init__(self):
        g = self.grid
        if g.geometry is not Geometry.STRIP2:
            raise FieldError("the primitive solver runs on the 2.5D strip")
        self.G, self.theta_B = _check_potential_and_walls(
            g, self.G, self.theta_B, FieldError)
        if not 0 < self.safety <= 1:
            raise FieldError(f"safety must lie in (0, 1], got {self.safety}")
        # gravity acceleration components, cached
        self.G1 = ddx1_arr(self.G, g)
        self.G3 = ddx3_arr(self.G, g)


@dataclass
class PrimitiveState:
    """Primitive unknowns; the magnetic field lives in (a, c3, B2)."""

    grid: Grid
    rho: np.ndarray
    u: np.ndarray              # (3, n3, n1)
    theta: np.ndarray
    a: np.ndarray              # in-plane flux function
    c3: float                  # conserved mean of B3
    B2: np.ndarray
    eps: float
    t: float

    def __post_init__(self):
        g = self.grid
        self.rho = np.asarray(self.rho, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        self.B2 = np.asarray(self.B2, dtype=float)
        for arr, what in ((self.rho, "rho"), (self.theta, "theta"),
                          (self.a, "a"), (self.B2, "B2")):
            if arr.shape != g.shape:
                raise FieldError(f"{what} shape {arr.shape} != {g.shape}")
            if not np.all(np.isfinite(arr)):
                raise FieldError(f"non-finite values in {what}")
        if self.u.shape != (3,) + g.shape or not np.all(np.isfinite(self.u)):
            raise FieldError("u must be a finite (3, n3, n1) array")
        if np.min(self.rho) <= 0.0:
            raise FieldError(f"rho must stay positive, min = {np.min(self.rho):.3e}")
        if np.min(self.theta) <= 0.0:
            raise FieldError(f"theta must stay positive, min = {np.min(self.theta):.3e}")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise FieldError(f"eps must be positive, got {self.eps}")

    @cached_property
    def B(self) -> np.ndarray:
        """Assembled (3, n3, n1) magnetic field; div B = 0 to rounding.  Built
        once and read-only, as no state array changes after construction."""
        g = self.grid
        B = np.stack([
            -ddx3_arr(self.a, g),
            self.B2,
            self.c3 + ddx1_arr(self.a, g),
        ])
        B.flags.writeable = False
        return B


def a_from_b3_profile(b3: np.ndarray, grid: Grid):
    """Flux function for a vertical field B = (0, 0, b3(x1)).

    Returns (a, c3) with a the spectral antiderivative of the mean-free
    part of b3 (broadcast over x3) and c3 its mean, so that
    c3 + d1 a reproduces b3 to spectral accuracy and B1 = -d3 a = 0."""
    b3 = np.asarray(b3, dtype=float)
    if b3.shape != (grid.n1,):
        raise FieldError(f"b3 profile must have shape ({grid.n1},)")
    spec = np.fft.rfft(b3)
    c3 = float(spec[0].real) / grid.n1
    k = grid.k1r_d.copy()
    dead = k == 0.0
    k[dead] = 1.0
    aspec = spec / (1j * k)
    aspec[dead] = 0.0
    a_line = np.fft.irfft(aspec, n=grid.n1)
    return np.broadcast_to(a_line, grid.shape).copy(), c3


def velocity_gradient(u: np.ndarray, grid: Grid) -> np.ndarray:
    """(3, 3) array of derivatives d_i u_j on the 2.5D strip (d2 = 0).

    The wall rows of d3 u1 and d3 u2 are zeroed, which encodes the
    stress-free tangential condition when the stress tensor is built from
    this gradient."""
    out = np.zeros((3, 3) + grid.shape)
    for j in range(3):
        out[0, j] = ddx1_arr(u[j], grid)
        out[2, j] = ddx3_arr(u[j], grid)
    out[2, :2, 0] = 0.0
    out[2, :2, -1] = 0.0
    return out


def _strain(theta, grad_u, gas: thermo.GasParams):
    """(mu, eta, div u, D) with D = grad u + grad u^T - (2/3) div u I: the
    one strain tensor, and the one transport evaluation, that the stress
    and the dissipation are built from."""
    mu = np.asarray(thermo.mu(theta, gas))
    eta = np.asarray(thermo.eta(theta, gas))
    divu = grad_u[0, 0] + grad_u[1, 1] + grad_u[2, 2]
    D = grad_u + grad_u.swapaxes(0, 1)
    for i in range(3):
        D[i, i] -= (2.0 / 3.0) * divu
    return mu, eta, divu, D


def _stress(mu, eta, divu, D):
    """Newtonian stress mu D + eta div u I, as a (3, 3, ...) array built in
    the storage of D, which it consumes."""
    D *= mu
    for i in range(3):
        D[i, i] += eta * divu
    return D


def _dissipation(mu, eta, divu, D):
    """S : grad u evaluated as the manifestly non-negative quadratic form
    (mu/2)|D|^2 + eta (div u)^2."""
    return 0.5 * mu * np.einsum("ij...,ij...->...", D, D) + eta * divu ** 2


def _curl25(B: np.ndarray, grid: Grid) -> np.ndarray:
    """curl on the 2.5D strip (d2 = 0)."""
    return np.stack([
        -ddx3_arr(B[1], grid),
        ddx3_arr(B[0], grid) - ddx1_arr(B[2], grid),
        ddx1_arr(B[1], grid),
    ])


def _tendencies(state: PrimitiveState, cfg: PrimConfig):
    """Time derivatives of (rho, u, theta, a, B2).

    Each sum of products is truncated once; results that are linear images
    of truncated arrays (x3 differences, x1 derivatives, wall rows) are
    band-limited already and are not truncated again."""
    g = state.grid
    gas = cfg.gas
    eps = state.eps
    rho, u, theta = state.rho, state.u, state.theta
    B = state.B

    def dz(arr):
        return dealias_arr(arr, g)

    # continuity in divergence form with the uniform mean-defect correction
    div_flux = ddx1_arr(dz(rho * u[0]), g) + ddx3_arr(dz(rho * u[2]), g)
    rho_t = -div_flux + mean_arr(div_flux, g)

    grad_u = velocity_gradient(u, g)
    mu, eta, divu, D = _strain(theta, grad_u, gas)
    phi = _dissipation(mu, eta, divu, D)  # before the stress takes over D

    # momentum: advection, stress, pressure, gravity, Lorentz
    adv = np.stack([dz(u[0] * grad_u[0, j] + u[2] * grad_u[2, j]) for j in range(3)])
    S = _stress(mu, eta, divu, D)
    divS = np.stack([
        ddx1_arr(dz(S[0, j]), g) + ddx3_arr(dz(S[2, j]), g) for j in range(3)
    ])
    p = thermo.pressure(rho, theta, gas)
    grad_p = np.stack([ddx1_arr(dz(p), g), np.zeros(g.shape), ddx3_arr(p, g)])
    J = _curl25(B, g)
    Jd = np.stack([dz(c) for c in J])
    Bd = np.stack([dz(c) for c in B])
    lorentz = cross3(Jd, Bd)
    grad_G = np.stack([cfg.G1, np.zeros(g.shape), cfg.G3])
    u_t = -adv + (divS - grad_p / eps ** 2 + rho * grad_G / eps
                  + lorentz / eps ** 2) / rho

    # temperature in internal-energy form
    dedt = np.asarray(thermo.de_dtheta(rho, theta, gas))
    dpdt = np.asarray(thermo.dp_dtheta(rho, theta, gas))
    kap = np.asarray(thermo.kappa(theta, gas))
    zet = np.asarray(thermo.zeta(theta, gas))
    d1th = ddx1_arr(theta, g)
    d3th = ddx3_arr(theta, g)
    heat_flux_div = ddx1_arr(dz(kap * d1th), g) + ddx3_arr(kap * d3th, g)
    joule = zet * (J[0] ** 2 + J[1] ** 2 + J[2] ** 2)
    theta_t = (-theta * dpdt * divu + eps ** 2 * phi + heat_flux_div + joule) \
        / (rho * dedt) - dz(u[0] * d1th + u[2] * d3th)

    # induction through the electric field E = zeta curl B - u x B
    uxB = cross3(u, B)
    E = np.stack([dz(zet * J[i] - uxB[i]) for i in range(3)])
    a_t = -E[1]
    # differentiated form of the wall constraint d3 a = 0 (an O(h^3)
    # perturbation since d3 E2 vanishes at the walls for B1|wall = 0);
    # as a linear invariant it then propagates exactly through any
    # Runge-Kutta stage combination, unlike a post-stage reset, which
    # costs a temporal order
    a_t[0] = (4.0 * a_t[1] - a_t[2]) / 3.0
    a_t[-1] = (4.0 * a_t[-2] - a_t[-3]) / 3.0
    B2_t = ddx1_arr(E[2], g) - ddx3_arr(E[0], g)

    return rho_t, np.stack([dz(c) for c in u_t]), dz(theta_t), a_t, B2_t


def entropy_production_terms(state: PrimitiveState, cfg: PrimConfig,
                             fault: bool = False):
    """The three entropy production densities (viscous, Joule, conductive),
    each non-negative by construction.  ``fault`` flips the sign of the
    viscous term; it exists so the fault-injection path of the command-line
    driver has something real to detect."""
    g = state.grid
    gas = cfg.gas
    grad_u = velocity_gradient(state.u, g)
    phi = _dissipation(*_strain(state.theta, grad_u, gas)) * state.eps ** 2 / state.theta
    if fault:
        phi = -phi
    J = _curl25(state.B, g)
    joule = np.asarray(thermo.zeta(state.theta, gas)) \
        * (J[0] ** 2 + J[1] ** 2 + J[2] ** 2) / state.theta
    d1th = ddx1_arr(state.theta, g)
    d3th = ddx3_arr(state.theta, g)
    cond = np.asarray(thermo.kappa(state.theta, gas)) \
        * (d1th ** 2 + d3th ** 2) / state.theta ** 2
    return phi, joule, cond


def cfl_limits(state: PrimitiveState, cfg: PrimConfig) -> float:
    """Largest admissible dt: 0.4 min(h eps / c_max, h^2 / nu_max), where
    c_max bounds the fast magnetosonic speed through the closed-form
    equation of state and nu_max the diffusivities."""
    gas = cfg.gas
    rho, theta = state.rho, state.theta
    p = np.asarray(thermo.pressure(rho, theta, gas))
    dpdr = np.asarray(thermo.dp_drho(rho, theta, gas))
    B = state.B
    bsq = B[0] ** 2 + B[1] ** 2 + B[2] ** 2
    c = np.sqrt(dpdr + (4.0 / 3.0) * p / rho + bsq / rho)
    umax = np.max(np.abs(state.u))
    c_max = float(np.max(c)) / state.eps + umax
    dedt = np.asarray(thermo.de_dtheta(rho, theta, gas))
    nu = np.maximum(
        ((4.0 / 3.0) * np.asarray(thermo.mu(theta, gas))
         + np.asarray(thermo.eta(theta, gas))) / rho,
        np.asarray(thermo.kappa(theta, gas)) / (rho * dedt))
    nu_max = max(float(np.max(nu)), float(np.max(np.asarray(thermo.zeta(theta, gas)))))
    g = state.grid
    h = min(g.dx1, g.dx3)
    return 0.4 * min(h / c_max, h ** 2 / nu_max)


def fix_flux_walls(a: np.ndarray) -> np.ndarray:
    """Adjust the wall rows of a flux function so the one-sided stencil
    gives d3 a = 0 there (hence B1 = 0 at the walls).  Initial data should
    pass through this once; the tendencies preserve the property exactly
    afterwards."""
    a = np.array(a, dtype=float)
    a[0] = (4.0 * a[1] - a[2]) / 3.0
    a[-1] = (4.0 * a[-2] - a[-3]) / 3.0
    return a


def _impose_bcs(rho, u, theta, a, B2, cfg: PrimConfig, eps: float):
    """Wall conditions: u3 = 0, theta Dirichlet, B2 = 0.  The flux
    function needs no reset here; its wall constraint is built into the
    tendencies as a linear invariant."""
    tb = cfg.ref.theta_bar
    u[2, 0] = 0.0
    u[2, -1] = 0.0
    theta[0] = tb + eps * cfg.theta_B[0]
    theta[-1] = tb + eps * cfg.theta_B[1]
    B2[0] = 0.0
    B2[-1] = 0.0


def step_prim(state: PrimitiveState, cfg: PrimConfig, dt: float,
              src=None) -> PrimitiveState:
    """One SSP-RK2 step of size dt with boundary conditions re-imposed
    after each stage.

    ``src(t)`` may return a dict with optional keys rho, u, theta, a, B2
    holding additive source fields (manufactured-solution hook).  Raises
    CflError if dt exceeds the advective/diffusive bound and
    PositivityError (carrying the pre-step state) if rho or theta would
    leave the admissible cone."""
    return _step_prim(state, cfg, dt, cfl_limits(state, cfg), src)


def _step_prim(state: PrimitiveState, cfg: PrimConfig, dt: float, limit: float,
               src) -> PrimitiveState:
    """Body of :func:`step_prim`, given the state's stability bound
    ``limit`` so that a driver which has already computed it for choosing
    dt does not compute it again."""
    if dt > limit * (1.0 + 1e-12):
        raise CflError(f"dt = {dt:.3e} exceeds the stability bound {limit:.3e}")

    def add_src(parts, t):
        if src is None:
            return parts
        extra = src(t)
        return [p + extra.get(key, 0.0)
                for p, key in zip(parts, ("rho", "u", "theta", "a", "B2"))]

    def stage(cur, parts, w_old, w_new):
        out = [w_old * b + w_new * (c + dt * p) for b, c, p in zip(base, cur, parts)]
        _impose_bcs(*out, cfg, state.eps)
        return out

    def assemble(parts, t):
        rho, u, theta, a, B2 = parts
        return PrimitiveState(state.grid, rho=rho, u=u, theta=theta, a=a,
                              c3=state.c3, B2=B2, eps=state.eps, t=t)

    base = (state.rho, state.u, state.theta, state.a, state.B2)
    f1 = add_src(_tendencies(state, cfg), state.t)
    mid = stage(base, f1, 0.0, 1.0)
    _check_admissible(mid, state)
    mid_state = assemble(mid, state.t + dt)
    f2 = add_src(_tendencies(mid_state, cfg), state.t + dt)
    out = stage(mid, f2, 0.5, 0.5)
    _check_admissible(out, state)
    return assemble(out, state.t + dt)


def _check_admissible(parts, last_valid):
    if not all(np.all(np.isfinite(p)) for p in parts):
        raise FieldError("non-finite values produced by the step")
    for name, arr in (("rho", parts[0]), ("theta", parts[2])):
        i3, i1 = np.unravel_index(np.argmin(arr), arr.shape)
        if arr[i3, i1] <= 0.0:
            raise PositivityError(
                f"positivity lost in the step from t = {last_valid.t!r}: min "
                f"{name} = {arr[i3, i1]:.3e} at (i3, i1) = ({i3}, {i1})",
                last_valid=last_valid)


# -- energies and diagnostics ---------------------------------------------------


def total_energy(state: PrimitiveState, gas: thermo.GasParams) -> float:
    """int [ (1/2) rho |u|^2 + eps^-2 (rho e + |B|^2 / 2) ]."""
    return _energy(state, gas, (0.0,))[0]


def ballistic_energy(state: PrimitiveState, psi: np.ndarray,
                     gas: thermo.GasParams) -> float:
    """int [ (1/2) rho |u|^2 + eps^-2 (rho e + |B|^2 / 2 - psi rho s) ]
    for a positive test temperature psi."""
    return _energy(state, gas, (_psi_rho_s(state, psi, gas),))[0]


def _psi_rho_s(state: PrimitiveState, psi, gas: thermo.GasParams):
    psi = np.asarray(psi, dtype=float)
    if np.any(psi <= 0.0) or not np.all(np.isfinite(psi)):
        raise thermo.ThermoDomainError("psi must be positive and finite")
    return psi * np.asarray(thermo.rho_s_total(state.rho, state.theta, gas))


def _energy(state: PrimitiveState, gas: thermo.GasParams, psi_rho_s) -> list:
    """int [ (1/2) rho |u|^2 + eps^-2 (rho e + |B|^2 / 2 - q) ] for each q
    in ``psi_rho_s``: the body of both energies, so that a caller wanting
    both evaluates rho e once."""
    g = state.grid
    roe = np.asarray(thermo.rho_e_total(state.rho, state.theta, gas))
    kinetic = 0.5 * state.rho * (state.u ** 2).sum(axis=0)
    inner = roe + 0.5 * (state.B ** 2).sum(axis=0)
    return [g.volume * mean_arr(kinetic + (inner - q) / state.eps ** 2, g)
            for q in psi_rho_s]


def psi_extension(cfg: PrimConfig, eps: float) -> np.ndarray:
    """Interior extension of the wall temperature: linear blend in x3 of
    theta_bar + eps theta_B between the two walls."""
    g = cfg.grid
    x3 = g.x3[:, None]
    return cfg.ref.theta_bar + eps * ((1.0 - x3) * cfg.theta_B[0][None, :]
                                      + x3 * cfg.theta_B[1][None, :])


def snapshot_fields(state: PrimitiveState) -> dict:
    """Named physical fields for the shared snapshot format."""
    B = state.B
    return {
        "rho": state.rho, "u1": state.u[0], "u2": state.u[1], "u3": state.u[2],
        "theta": state.theta, "B1": B[0], "B2": B[1], "B3": B[2],
    }


class StepRow(NamedTuple):
    """One :func:`run_prim` row; all fields but the last are the ``run-mhd``
    CSV columns."""

    t: float
    mass: float
    momentum1: float
    total_energy: float
    ballistic_energy: float
    divB_max: float
    rho_min: float
    theta_min: float
    entropy_production: float  # integral of the three production terms
    entropy_floor: float       # pointwise minimum over the three terms


def run_prim(state: PrimitiveState, cfg: PrimConfig, t_end: float,
             dt: float = None, src=None, on_step=None, entropy_fault: bool = False,
             fail_snapshot: str = None):
    """March to t_end; returns (final state, one :class:`StepRow` per step).

    Each row is the step's one diagnostics pass: t, mass, momentum1,
    total_energy, ballistic_energy, divB_max, rho_min, theta_min, and the
    integral (entropy_production) and pointwise minimum (entropy_floor) of
    one :func:`entropy_production_terms` call with ``fault=entropy_fault``.
    Each step is at most dt, or with dt = None cfg.safety times the current
    CFL bound, shrunk by the common landing rule so the run ends exactly on
    t_end; ``on_step`` then gets the new state.  On positivity loss the last
    valid state is dumped to ``fail_snapshot`` when given and the error
    re-raised."""
    g = state.grid
    rows = []
    psi = psi_extension(cfg, state.eps)
    while True:
        limit = cfl_limits(state, cfg)
        bound = cfg.safety * limit if dt is None else dt
        n_left, step = _landing_step(state.t, t_end, bound)
        if n_left == 0:
            break
        try:
            state = _step_prim(state, cfg, step, limit, src)
        except PositivityError as exc:
            if fail_snapshot and exc.last_valid is not None:
                write_snapshot(fail_snapshot, g, snapshot_fields(exc.last_valid))
            raise
        B = state.B
        divB = ddx1_arr(B[0], g) + ddx3_arr(B[2], g)
        phi, joule, cond = entropy_production_terms(state, cfg, fault=entropy_fault)
        rows.append(StepRow(
            state.t,
            g.volume * mean_arr(state.rho, g),
            g.volume * mean_arr(state.rho * state.u[0], g),
            *_energy(state, cfg.gas, (0.0, _psi_rho_s(state, psi, cfg.gas))),
            float(np.max(np.abs(divB))),
            float(np.min(state.rho)),
            float(np.min(state.theta)),
            g.volume * mean_arr(phi + joule + cond, g),
            min(float(np.min(term)) for term in (phi, joule, cond)),
        ))
        if on_step is not None:
            on_step(state)
        if n_left == 1:
            break  # landed on t_end
    return state, rows

"""Solver for the limiting Boussinesq magnetoconvection system.

Unknowns and layout
-------------------
The limit system couples a horizontal, divergence-free velocity U (depth
independent), a temperature deviation theta1 with vertical structure, a
scalar vertical-field magnetic deviation b1 (depth independent), and the
spatially homogeneous closure chi(t) = dp_dtheta(rho_bar, theta_bar) *
mean(theta1).  On a strip grid with shape (n3, ...) the depth-independent
unknowns are stored as plain horizontal arrays of shape ``grid.hshape``;
U has shape ``(2,) + grid.hshape``.

The density deviation rho1 is not an unknown: it is recovered pointwise
from the Boussinesq relation (:func:`boussinesq_rho`), and the transported
continuity equation is tracked as a consistency residual instead of being
integrated.

Time integration is IMEX: diffusion is implicit (Crank-Nicolson, with a
backward-Euler predictor), advection and couplings are explicit through a
Heun predictor-corrector.  The implicit heat solve is diagonal in
horizontal Fourier modes times vertical sine modes once the Dirichlet wall
temperature is lifted onto the interior, so one transform pair solves it
for every mode (:func:`obmlab.fields.helmholtz_solve_arr`); the horizontal
diffusion of U and b1 is diagonal in Fourier space.

On a STRIP2 grid the only horizontal, divergence-free, depth-independent
velocity is a constant, which is pinned to zero; the momentum equation is
then inert and the solver reduces to the heat/induction pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_banded  # noqa: F401  unused; benchmarks/tracing.py wraps it

from . import thermo
from .fields import (
    FieldError,
    Geometry,
    Grid,
    d2dx3_arr,
    ddx1_arr,
    ddx2_arr,
    dealias_arr,
    helmholtz_solve_arr,
    hfft,
    hifft,
    lap_h_arr,
    leray_arr,
    mean_arr,
    wall_flux_arr,
)

__all__ = [
    "ObmConfigError",
    "CflError",
    "ObmConfig",
    "ObmState",
    "compute_chi",
    "boussinesq_rho",
    "step_obm",
    "run_obm",
    "default_potential",
    "initial_state",
    "kinetic_energy",
    "magnetic_energy",
]


class ObmConfigError(ValueError):
    """Raised for invalid solver configuration."""


class CflError(RuntimeError):
    """Raised when an explicit step would violate the advective CFL bound."""


def default_potential(grid: Grid) -> np.ndarray:
    """Mean-free vertical potential G(x3) = 1/2 - x3 on the strip."""
    c = grid.coords()
    return np.broadcast_to(0.5 - c["x3"], grid.shape).copy()


def _check_potential_and_walls(grid: Grid, G, theta_B, error) -> tuple:
    """Validated solver inputs shared by both configs: the potential G as a
    finite strip-shaped array and the (bottom, top) wall temperature
    deviations broadcast to finite hshape arrays.  Failures raise ``error``."""
    G = np.asarray(G, dtype=float)
    if G.shape != grid.shape:
        raise error(f"G shape {G.shape} != grid shape {grid.shape}")
    if not np.all(np.isfinite(G)):
        raise error("non-finite potential G")
    bottom, top = theta_B
    bottom = np.broadcast_to(np.asarray(bottom, dtype=float), grid.hshape).copy()
    top = np.broadcast_to(np.asarray(top, dtype=float), grid.hshape).copy()
    if not (np.all(np.isfinite(bottom)) and np.all(np.isfinite(top))):
        raise error("non-finite wall temperature")
    return G, (bottom, top)


@dataclass
class ObmConfig:
    grid: Grid
    gas: thermo.GasParams
    ref: thermo.ReferenceState
    G: np.ndarray
    theta_B: tuple  # (bottom, top) wall temperature deviations, hshape each
    dt: float
    t_end: float
    # reference-state coefficients, derived anew by every construction
    alpha: float = field(init=False, repr=False)
    cp: float = field(init=False, repr=False)
    dpdt: float = field(init=False, repr=False)
    dpdr: float = field(init=False, repr=False)
    dedt: float = field(init=False, repr=False)
    kappa: float = field(init=False, repr=False)
    zeta: float = field(init=False, repr=False)
    mu: float = field(init=False, repr=False)

    def __post_init__(self):
        g = self.grid
        if not g.has_walls:
            raise ObmConfigError("the limit solver needs a strip geometry")
        self.G, self.theta_B = _check_potential_and_walls(
            g, self.G, self.theta_B, ObmConfigError)
        gm = mean_arr(self.G, g)
        if abs(gm) > 1e-10 * (1.0 + np.max(np.abs(self.G))):
            raise ObmConfigError(f"potential G must be mean-free, mean = {gm:.3e}")
        if not self.dt > 0:
            raise ObmConfigError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ObmConfigError(f"t_end must be nonnegative, got {self.t_end}")
        gas, rb, tb = self.gas, self.ref.rho_bar, self.ref.theta_bar
        self.alpha, self.cp = thermo.alpha_cp(self.ref, gas)
        self.dpdt = float(thermo.dp_dtheta(rb, tb, gas))
        self.dpdr = float(thermo.dp_drho(rb, tb, gas))
        self.dedt = float(thermo.de_dtheta(rb, tb, gas))
        self.kappa = float(thermo.kappa(tb, gas))
        self.zeta = float(thermo.zeta(tb, gas))
        self.mu = float(thermo.mu(tb, gas))


def compute_chi(theta1: np.ndarray, grid: Grid, gas: thermo.GasParams,
                ref: thermo.ReferenceState) -> float:
    dpdt = float(thermo.dp_dtheta(ref.rho_bar, ref.theta_bar, gas))
    return dpdt * mean_arr(theta1, grid)


@dataclass
class ObmState:
    grid: Grid
    theta1: np.ndarray          # strip shape
    b1: np.ndarray              # hshape
    U: np.ndarray               # (2,) + hshape
    chi: float
    t: float
    diag: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        g = self.grid
        self.theta1 = np.asarray(self.theta1, dtype=float)
        self.b1 = np.asarray(self.b1, dtype=float)
        self.U = np.asarray(self.U, dtype=float)
        if self.theta1.shape != g.shape:
            raise FieldError(f"theta1 shape {self.theta1.shape} != {g.shape}")
        if self.b1.shape != g.hshape:
            raise FieldError(f"b1 shape {self.b1.shape} != {g.hshape}")
        if self.U.shape != (2,) + g.hshape:
            raise FieldError(f"U shape {self.U.shape} != {(2,) + g.hshape}")
        for arr, what in ((self.theta1, "theta1"), (self.b1, "b1"), (self.U, "U")):
            if not np.all(np.isfinite(arr)):
                raise FieldError(f"non-finite values in {what}")
        if g.geometry is Geometry.STRIP2 and np.any(self.U != 0.0):
            raise FieldError("U must vanish identically on a STRIP2 grid")

    @classmethod
    def create(cls, grid: Grid, theta1, b1=None, U=None, *,
               gas: thermo.GasParams, ref: thermo.ReferenceState,
               t: float = 0.0) -> "ObmState":
        """Assemble a state, filling zeros and recomputing chi."""
        theta1 = np.asarray(theta1, dtype=float)
        if b1 is None:
            b1 = np.zeros(grid.hshape)
        if U is None:
            U = np.zeros((2,) + grid.hshape)
        chi = compute_chi(theta1, grid, gas, ref)
        return cls(grid, theta1, np.asarray(b1, float), np.asarray(U, float), chi, t)


def initial_state(cfg: ObmConfig, theta_amp: float = 0.1,
                  b_amp: float = 0.25) -> ObmState:
    """Smooth wall-compatible starting data for driver runs.

    theta1 = theta_amp sin(pi x3)(1 + 0.5 cos(pi x1)) vanishes on the walls;
    b1 = b_amp (cos(pi x1) + 0.3 sin(2 pi x1)) is mean-free; U = 0.
    """
    g = cfg.grid
    c = g.coords()
    th = theta_amp * np.sin(np.pi * c["x3"]) * (1.0 + 0.5 * np.cos(np.pi * c["x1"]))
    th = np.broadcast_to(th, g.shape).copy()
    x1h = g.x1 if g.geometry is Geometry.STRIP2 else g.x1[None, :] * np.ones((g.n2, 1))
    b1 = b_amp * (np.cos(np.pi * x1h) + 0.3 * np.sin(2 * np.pi * x1h))
    b1 = np.broadcast_to(b1, g.hshape).copy()
    return ObmState.create(g, th, b1, gas=cfg.gas, ref=cfg.ref)


# -- helpers ------------------------------------------------------------------


def _to_strip(arr_h: np.ndarray, grid: Grid) -> np.ndarray:
    """Broadcast a horizontal array over the vertical direction."""
    return np.broadcast_to(arr_h, grid.shape)


def _depth_avg(arr: np.ndarray, grid: Grid) -> np.ndarray:
    """Trapezoidal average over x3; maps strip shape to hshape."""
    return np.tensordot(grid.w3, arr, axes=(0, 0))


def _advect_h(U: np.ndarray, f: np.ndarray, grid: Grid) -> np.ndarray:
    """Dealiased U . grad_h f; U lives on hshape, f on strip or hshape.
    Exactly zero, without a transform, when U vanishes identically (always
    on STRIP2)."""
    if not np.any(U != 0.0):
        return np.zeros(f.shape)
    u1 = dealias_arr(U[0], grid)
    d1 = dealias_arr(ddx1_arr(f, grid), grid)
    if f.shape == grid.shape:
        out = _to_strip(u1, grid) * d1
    else:
        out = u1 * d1
    if grid.has_x2:
        u2 = dealias_arr(U[1], grid)
        d2 = dealias_arr(ddx2_arr(f, grid), grid)
        out = out + (_to_strip(u2, grid) if f.shape == grid.shape else u2) * d2
    return out


# -- right-hand sides ----------------------------------------------------------


def boussinesq_rho(theta1: np.ndarray, b1: np.ndarray, cfg: ObmConfig) -> np.ndarray:
    """Density deviation from the Boussinesq closure,

        rho1 = [rho_bar G - dp_dtheta (theta1 - <theta1>) - (A - <A>)] / dp_drho

    with A = b_bar b1 and all coefficients at the reference state.  The
    result is mean-free by construction."""
    g = cfg.grid
    ref = cfg.ref
    A = ref.b_bar * np.asarray(b1, dtype=float)
    A_dev = A - A.mean()
    th_dev = theta1 - mean_arr(theta1, g)
    num = ref.rho_bar * cfg.G - cfg.dpdt * th_dev - _to_strip(A_dev, g)
    return num / cfg.dpdr


def _induction_transport(b1: np.ndarray, U: np.ndarray, grid: Grid) -> np.ndarray:
    """Dealiased -div_h(b1 U) on hshape.  Exactly zero, without a
    transform, when U vanishes identically (always on STRIP2)."""
    if not np.any(U != 0.0):
        return np.zeros(b1.shape)
    bd = dealias_arr(b1, grid)
    out = -ddx1_arr(dealias_arr(bd * dealias_arr(U[0], grid), grid), grid)
    if grid.has_x2:
        out = out - ddx2_arr(dealias_arr(bd * dealias_arr(U[1], grid), grid), grid)
    return out


def _heat_terms(state: ObmState, cfg: ObmConfig):
    """Explicit heat forcing (everything except the stiff kappa lap theta1)
    divided by rho_bar c_p, plus the closed mean drift d<theta1>/dt.

    The non-local term enters through the closed ODE
    d<theta1>/dt = kappa(theta_bar) <lap theta1> / (rho_bar de_dtheta); with
    the stiff term added, the discrete mean of the full right side
    reproduces exactly that drift, because the wall flux stencil telescopes
    against the trapezoid rule."""
    g = state.grid
    rb, tb = cfg.ref.rho_bar, cfg.ref.theta_bar
    drift = cfg.kappa * wall_flux_arr(state.theta1, g) / (rb * cfg.dedt)
    A = cfg.ref.b_bar * state.b1
    # adiabatic response to the decaying magnetic head: the first-order
    # pressure is rho_bar G - A plus a mean, so its material derivative
    # contributes -theta_bar alpha D_t A, and D_t A = zeta lap_h A by the
    # induction equation
    forcing = -tb * cfg.alpha * cfg.zeta * _to_strip(lap_h_arr(A, g), g)
    forcing = forcing + tb * cfg.alpha * cfg.dpdt * drift
    forcing = forcing + rb * tb * cfg.alpha * _advect_h(state.U, cfg.G, g)
    return forcing / (rb * cfg.cp) - _advect_h(state.U, state.theta1, g), drift


def _momentum_nonstiff(state: ObmState, cfg: ObmConfig) -> np.ndarray:
    """Leray-projected acceleration of U without the viscous term.

    The buoyancy force is the depth average of rho1 grad_h G / rho_bar;
    the horizontal Lorentz force -b1 grad_h b1 is a pure gradient on the
    torus and is absorbed into the projection pressure, so it is omitted."""
    g = state.grid
    if g.geometry is Geometry.STRIP2:
        return np.zeros((2,) + g.hshape)
    rho1 = boussinesq_rho(state.theta1, state.b1, cfg)
    rho1d = dealias_arr(rho1, g)
    F1 = _depth_avg(rho1d * dealias_arr(ddx1_arr(cfg.G, g), g), g) / cfg.ref.rho_bar
    F2 = _depth_avg(rho1d * dealias_arr(ddx2_arr(cfg.G, g), g), g) / cfg.ref.rho_bar
    out = np.stack([
        -_advect_h(state.U, state.U[0], g) + F1,
        -_advect_h(state.U, state.U[1], g) + F2,
    ])
    return leray_arr(out, g)


# -- implicit solves -----------------------------------------------------------


def _diag_implicit(data: np.ndarray, nu: float, dt: float, grid: Grid) -> np.ndarray:
    """Solve (I - dt nu lap_h) x = data spectrally (depth-independent fields)."""
    spec = hfft(data, grid)
    spec /= (1.0 + dt * nu * grid.ksq)
    return hifft(spec, grid)


# -- time stepping --------------------------------------------------------------


def step_obm(state: ObmState, cfg: ObmConfig, src=None) -> ObmState:
    """Advance one step of size cfg.dt.

    ``src(t)`` may return a dict with optional keys theta1, b1, U holding
    additive source fields (used by manufactured-solution tests).  Raises
    CflError when |U|max dt / h exceeds 0.9 and FieldError on non-finite
    results."""
    g = state.grid
    dt = cfg.dt
    hmin = g.dx1 if not g.has_x2 else min(g.dx1, g.dx2)
    umax = float(np.max(np.abs(state.U))) if state.U.size else 0.0
    if umax * dt / hmin > 0.9:
        raise CflError(
            f"advective CFL violated: |U|max={umax:.3g}, dt={dt:.3g}, h={hmin:.3g}, "
            f"Courant={umax * dt / hmin:.3g} > 0.9 in the step from t = {state.t!r}")

    cth = cfg.kappa / (cfg.ref.rho_bar * cfg.cp)
    nu_b = cfg.zeta
    nu_u = cfg.mu / cfg.ref.rho_bar
    wb, wt = cfg.theta_B

    def explicit(st: ObmState) -> list:
        """Explicit tendencies of (theta1, b1, U) at st, plus any sources."""
        terms = [_heat_terms(st, cfg)[0],
                 _induction_transport(st.b1, st.U, g),
                 _momentum_nonstiff(st, cfg)]
        extra = {} if src is None else src(st.t)
        return [term + extra[key] if key in extra else term
                for term, key in zip(terms, ("theta1", "b1", "U"))]

    Nth_n, Nb_n, NU_n = explicit(state)

    # predictor: backward Euler diffusion, forward Euler transport
    th_star = helmholtz_solve_arr(state.theta1 + dt * Nth_n, wb, wt, dt * cth, g)
    b_star = _diag_implicit(state.b1 + dt * Nb_n, nu_b, dt, g)
    if g.geometry is Geometry.STRIP2:
        U_star = state.U
    else:
        U_star = leray_arr(_diag_implicit(state.U + dt * NU_n, nu_u, dt, g), g)
    star = ObmState(g, th_star, b_star, U_star, cfg.dpdt * mean_arr(th_star, g),
                    state.t + dt)

    # corrector: Crank-Nicolson diffusion, Heun transport
    Nth_s, Nb_s, NU_s = explicit(star)

    # the solve does not read the wall rows of this explicit half; the
    # Dirichlet values take their place
    lap_th = lap_h_arr(state.theta1, g) + d2dx3_arr(state.theta1, g)
    rhs_th = state.theta1 + 0.5 * dt * cth * lap_th \
        + 0.5 * dt * (Nth_n + Nth_s)
    th_new = helmholtz_solve_arr(rhs_th, wb, wt, 0.5 * dt * cth, g)

    spec_b = hfft(state.b1, g)
    spec_b = (spec_b * (1.0 - 0.5 * dt * nu_b * g.ksq)
              + 0.5 * dt * hfft(Nb_n + Nb_s, g)) / (1.0 + 0.5 * dt * nu_b * g.ksq)
    b_new = hifft(spec_b, g)

    if g.geometry is Geometry.STRIP2:
        U_new = state.U
    else:
        spec_u = hfft(state.U, g)
        spec_u = (spec_u * (1.0 - 0.5 * dt * nu_u * g.ksq)
                  + 0.5 * dt * hfft(NU_n + NU_s, g)) / (1.0 + 0.5 * dt * nu_u * g.ksq)
        U_new = leray_arr(hifft(spec_u, g), g)

    new = ObmState(g, th_new, b_new, U_new, cfg.dpdt * mean_arr(th_new, g),
                   state.t + dt)

    # continuity diagnostic: the transported density equation is not solved,
    # its residual on the derived rho1 measures the closure consistency
    rho1_old = boussinesq_rho(state.theta1, state.b1, cfg)
    rho1_new = boussinesq_rho(new.theta1, new.b1, cfg)
    transport = 0.5 * (_advect_h(state.U, rho1_old, g)
                       + _advect_h(new.U, rho1_new, g))
    resid = (rho1_new - rho1_old) / dt + transport
    new.diag["continuity_residual"] = float(np.max(np.abs(resid)))
    return new


def kinetic_energy(state: ObmState, cfg: ObmConfig) -> float:
    """(1/2) rho_bar int |U|^2 dx over the strip volume."""
    usq = (state.U ** 2).sum(axis=0)
    return 0.5 * cfg.ref.rho_bar * state.grid.volume * float(usq.mean())


def magnetic_energy(state: ObmState, cfg: ObmConfig) -> float:
    """(1/2) int (b1)^2 dx over the strip volume."""
    return 0.5 * state.grid.volume * float(np.mean(state.b1 ** 2))


def _landing_step(t: float, t_end: float, dt_max: float):
    """The landing rule of every driver: the fewest equal steps of at most
    dt_max (up to a relative 1e-9, so rounding never adds a sliver step)
    that end exactly on t_end.  Returns (n, dt); (0, 0.0) when nothing
    remains."""
    remaining = t_end - t
    if remaining <= 1e-12:
        return 0, 0.0
    n = max(1, int(np.ceil(remaining / dt_max - 1e-9)))
    return n, remaining / n


def run_obm(state: ObmState, cfg: ObmConfig, src=None, on_step=None):
    """March to cfg.t_end in equal steps of at most cfg.dt that land on it
    exactly; returns (final state, per-step diagnostic rows).

    Rows are (t, mean theta1, chi, kinetic energy, magnetic energy,
    continuity residual)."""
    n_steps, dt = _landing_step(state.t, cfg.t_end, cfg.dt)
    if n_steps and dt != cfg.dt:
        cfg = replace(cfg, dt=dt)
    rows = []
    for _ in range(n_steps):
        state = step_obm(state, cfg, src=src)
        rows.append((
            state.t,
            mean_arr(state.theta1, state.grid),
            state.chi,
            kinetic_energy(state, cfg),
            magnetic_energy(state, cfg),
            state.diag.get("continuity_residual", 0.0),
        ))
        if on_step is not None:
            on_step(state)
    return state, rows

"""Solver for the limiting Boussinesq magnetoconvection system on the strip.

Unknowns and layout
-------------------
The limit system couples a temperature deviation theta1 with vertical
structure, a scalar vertical-field magnetic deviation b1 (depth
independent), and the spatially homogeneous closure chi(t) =
dp_dtheta(rho_bar, theta_bar) * mean(theta1).  theta1 has the strip shape
``grid.shape`` and b1 the horizontal shape ``grid.hshape``.

The limit also carries a horizontal, divergence-free, depth-independent
velocity.  On the STRIP2 slice, the only geometry with walls, the only such
velocity is a constant, which is pinned to zero: the momentum equation is
inert, nothing is advected, and the solver reduces to the heat/induction
pair.  :attr:`ObmState.U` reads as that zero flow.

The density deviation rho1 is not an unknown: it is recovered pointwise
from the Boussinesq relation (:func:`boussinesq_rho`), and the transported
continuity equation is tracked as a consistency residual instead of being
integrated: :func:`run_obm` computes it for each row from the states before
and after the step, so a state is a plain value.

Time integration is IMEX: diffusion is implicit (Crank-Nicolson, with a
backward-Euler predictor), the couplings are explicit through a Heun
predictor-corrector.  With the flow pinned, the heat equation is linear
with constant coefficients, and its Crank-Nicolson operator is diagonal in
horizontal Fourier modes times vertical sine modes once the Dirichlet wall
temperatures are lifted onto the first and last interior rows (Hockney,
J. ACM 1965).  So a state carries the spectrum of its theta1,
:attr:`ObmState.modes` (transformed once when a run starts from plain
data), and the corrector updates it mode by mode
(:func:`_crank_nicolson`): the walls and the x3-independent forcing enter
through x1 transforms of single rows, and the step's one transform over
the whole strip is the inverse that gives the new theta1, which the
driver's row and continuity residual read.  The horizontal diffusion
of b1 is diagonal in Fourier space.

The explicit heat forcing is x3-independent: the adiabatic response to the
decaying magnetic head plus the non-local mean drift.  theta1 enters it
only through that drift, that is through its wall flux, and the wall flux
is a function of theta1's x1-mean column (:func:`obmlab.fields.wall_flux_arr`).
So the corrector reads the predictor temperature through that column alone,
and the predictor solves only the horizontal-mean mode
(:func:`obmlab.fields.helmholtz_solve_column`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import thermo
from .fields import (
    FieldError,
    Grid,
    _odd_fft,
    field_array,
    from_sine_modes,
    helmholtz_solve_column,
    hfft,
    hifft,
    lap_h_arr,
    mean_arr,
    sine_modes,
    wall_flux_arr,
)

__all__ = [
    "ObmConfig",
    "ObmState",
    "compute_chi",
    "boussinesq_rho",
    "step_obm",
    "run_obm",
    "default_potential",
    "initial_state",
    "magnetic_energy",
]


def __getattr__(name: str):
    # No solver calls scipy's solve_banded, but benchmarks/tracing.py still
    # wraps obm.solve_banded as its "scipy.solve_banded" span (ROADMAP item
    # 1).  Importing scipy only when that name is asked for keeps it off the
    # package's import path; the benchmark change that drops the span
    # deletes this hook.
    if name == "solve_banded":
        from scipy.linalg import solve_banded
        return solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def default_potential(grid: Grid) -> np.ndarray:
    """Mean-free vertical potential G(x3) = 1/2 - x3 on the strip."""
    c = grid.coords()
    return np.broadcast_to(0.5 - c["x3"], grid.shape).copy()


def _check_potential_and_walls(grid: Grid, G, theta_B) -> tuple:
    """Validated solver inputs shared by both configs: the potential G as a
    finite strip-shaped array and the (bottom, top) wall temperature
    deviations as finite hshape arrays of their own, a number standing for
    a uniform wall."""
    G = field_array(G, grid.shape, "G")
    walls = []
    for wall, side in zip(theta_B, ("bottom", "top"), strict=True):
        if np.ndim(wall) == 0:
            wall = np.full(grid.hshape, wall, dtype=float)
        else:
            wall = np.array(wall, dtype=float)  # a copy, not the caller's array
        walls.append(field_array(wall, grid.hshape, f"{side} wall temperature"))
    return G, tuple(walls)


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

    def __post_init__(self):
        g = self.grid
        if not g.has_walls:
            raise FieldError("the limit solver needs a strip geometry")
        self.G, self.theta_B = _check_potential_and_walls(g, self.G, self.theta_B)
        gm = mean_arr(self.G, g)
        if abs(gm) > 1e-10 * (1.0 + np.max(np.abs(self.G))):
            raise FieldError(f"potential G must be mean-free, mean = {gm:.3e}")
        if not self.dt > 0:
            raise FieldError(f"dt must be positive, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0):
            raise FieldError(f"t_end must be finite and nonnegative, got {self.t_end}")
        gas, rb, tb = self.gas, self.ref.rho_bar, self.ref.theta_bar
        self.alpha, self.cp = thermo.alpha_cp(self.ref, gas)
        self.dpdt = float(thermo.dp_dtheta(rb, tb, gas))
        self.dpdr = float(thermo.dp_drho(rb, tb, gas))
        self.dedt = float(thermo.de_dtheta(rb, tb, gas))
        self.kappa = float(thermo.kappa(tb, gas))
        self.zeta = float(thermo.zeta(tb, gas))

    @cached_property
    def heat_step(self) -> tuple:
        """Mode-wise factors (R, P, S) of the Crank-Nicolson heat step of
        size dt (:func:`_crank_nicolson`), built on the first step that reads
        them: with a = c (ksq + lam3) and c = dt kappa / (2 rho_bar c_p),
        R = (1 - a)/(1 + a) and P = 1/(1 + a); the columns of S are the sine
        transforms of (c/h^2) e_1, (c/h^2) e_(n3-2) and the ones, which lift
        the walls onto the first and last interior rows and spread an
        x3-independent forcing."""
        g = self.grid
        c = 0.5 * self.dt * self.kappa / (self.ref.rho_bar * self.cp)
        a = c * (g.ksq[None, :] + g.lam3[:, None])
        units = np.zeros((g.n3 - 2, 3))
        units[0, 0] = units[-1, 1] = c / g.dx3 ** 2
        units[:, 2] = 1.0
        # R and P complex, so that their products with the modes need no cast
        return (((1.0 - a) / (1.0 + a)).astype(complex),
                (1.0 / (1.0 + a)).astype(complex), _odd_fft(units))


def compute_chi(theta1: np.ndarray, grid: Grid, gas: thermo.GasParams,
                ref: thermo.ReferenceState) -> float:
    dpdt = float(thermo.dp_dtheta(ref.rho_bar, ref.theta_bar, gas))
    return dpdt * mean_arr(theta1, grid)


@dataclass
class ObmState:
    """Limit unknowns, of checked shapes and finite values, chi and t too."""

    grid: Grid
    theta1: np.ndarray          # strip shape
    b1: np.ndarray              # hshape
    chi: float
    t: float

    def __post_init__(self):
        self.theta1 = field_array(self.theta1, self.grid.shape, "theta1")
        self.b1 = field_array(self.b1, self.grid.hshape, "b1")
        if not (np.isfinite(self.chi) and np.isfinite(self.t)):
            raise FieldError(f"chi and t must be finite, got {self.chi} and {self.t}")

    @cached_property
    def modes(self) -> np.ndarray:
        """Fourier-sine spectrum of theta1's interior rows
        (:func:`obmlab.fields.sine_modes`), which :func:`step_obm` advances.
        Built on first use, or handed over by the step that made the state,
        and read-only, as theta1 does not change after construction."""
        modes = sine_modes(self.theta1, self.grid)
        modes.flags.writeable = False
        return modes

    @property
    def U(self) -> np.ndarray:
        """The horizontal mean flow, (2,) + hshape: zero on the strip."""
        return np.zeros((2,) + self.grid.hshape)

    @classmethod
    def create(cls, grid: Grid, theta1, b1=None, *,
               gas: thermo.GasParams, ref: thermo.ReferenceState,
               t: float = 0.0) -> "ObmState":
        """Assemble a state, filling a zero b1 and recomputing chi once the
        constructor has checked theta1 and b1."""
        state = cls(grid, theta1, np.zeros(grid.hshape) if b1 is None else b1, 0.0, t)
        state.chi = compute_chi(state.theta1, grid, gas, ref)
        return state


def initial_state(cfg: ObmConfig, theta_amp: float = 0.1,
                  b_amp: float = 0.25) -> ObmState:
    """Smooth wall-compatible starting data for driver runs.

    theta1 = theta_amp sin(pi x3)(1 + 0.5 cos(pi x1)) vanishes on the walls;
    b1 = b_amp (cos(pi x1) + 0.3 sin(2 pi x1)) is mean-free.
    """
    g = cfg.grid
    c = g.coords()
    th = theta_amp * np.sin(np.pi * c["x3"]) * (1.0 + 0.5 * np.cos(np.pi * c["x1"]))
    th = np.broadcast_to(th, g.shape).copy()
    b1 = b_amp * (np.cos(np.pi * g.x1) + 0.3 * np.sin(2 * np.pi * g.x1))
    return ObmState.create(g, th, b1, gas=cfg.gas, ref=cfg.ref)


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
    num = ref.rho_bar * cfg.G - cfg.dpdt * th_dev - np.broadcast_to(A_dev, g.shape)
    return num / cfg.dpdr


def _heat_terms(flux: float, b1: np.ndarray, cfg: ObmConfig) -> np.ndarray:
    """Explicit heat forcing (everything except the stiff kappa lap theta1)
    divided by rho_bar c_p, on hshape since it does not depend on x3; theta1
    enters it only through the closed mean drift d<theta1>/dt, that is
    through its wall flux ``flux`` (:func:`obmlab.fields.wall_flux_arr`).

    The non-local term enters through the closed ODE
    d<theta1>/dt = kappa(theta_bar) <lap theta1> / (rho_bar de_dtheta); with
    the stiff term added, the discrete mean of the full right side
    reproduces exactly that drift, because the wall flux stencil telescopes
    against the trapezoid rule."""
    rb, tb = cfg.ref.rho_bar, cfg.ref.theta_bar
    drift = cfg.kappa * flux / (rb * cfg.dedt)
    # adiabatic response to the decaying magnetic head: the first-order
    # pressure is rho_bar G - A plus a mean, so its material derivative
    # contributes -theta_bar alpha D_t A, and D_t A = zeta lap_h A by the
    # induction equation
    forcing = -tb * cfg.alpha * cfg.zeta * lap_h_arr(cfg.ref.b_bar * b1, cfg.grid)
    forcing = forcing + tb * cfg.alpha * cfg.dpdt * drift
    return forcing / (rb * cfg.cp)


def _diag_implicit(data: np.ndarray, nu: float, dt: float, grid: Grid) -> np.ndarray:
    """Solve (I - dt nu lap_h) x = data spectrally (depth-independent fields)."""
    spec = hfft(data, grid)
    spec /= (1.0 + dt * nu * grid.ksq)
    return hifft(spec, grid)


# -- time stepping --------------------------------------------------------------


def _crank_nicolson(state: ObmState, forcing: np.ndarray, source, cfg: ObmConfig):
    """Modes of the Crank-Nicolson heat step (I - c L) theta_new =
    (I + c L) theta1 + forcing + source, with L the spectral horizontal plus
    centered vertical Laplacian on the interior rows, the state's wall rows
    on the right and the config's walls on the left; ``forcing`` is hshape,
    ``source`` strip-shaped or None.  Mode by mode (:attr:`ObmConfig.heat_step`):

        Theta_new = R Theta + P (S [h_b; h_t; F] + source modes)

    with h_b, h_t, F the x1 spectra of theta1[0] + bottom, theta1[-1] + top
    and the forcing."""
    R, P, S = cfg.heat_step
    wb, wt = cfg.theta_B
    rows = np.stack([state.theta1[0] + wb, state.theta1[-1] + wt, forcing])
    rhs = S @ hfft(rows, state.grid)
    if source is not None:
        rhs += sine_modes(source, state.grid)
    rhs *= P
    modes = R * state.modes
    modes += rhs
    return modes


def step_obm(state: ObmState, cfg: ObmConfig, src=None) -> ObmState:
    """Advance one step of size cfg.dt, from the state's theta1 and its
    :attr:`ObmState.modes`; the new state carries its own.

    ``src(t)`` may return a dict with optional keys theta1 and b1 holding
    additive source fields (used by manufactured-solution tests).  Raises
    FieldError on non-finite results."""
    g = state.grid
    dt = cfg.dt
    cth = cfg.kappa / (cfg.ref.rho_bar * cfg.cp)
    nu_b = cfg.zeta
    wb, wt = cfg.theta_B

    def explicit(flux: float, b1: np.ndarray, t: float) -> tuple:
        """Explicit tendencies: theta1's x3-independent forcing (hshape),
        theta1's source at t (strip shape, None without ``src``) and b1's."""
        Nth = _heat_terms(flux, b1, cfg)
        if src is None:
            return Nth, None, np.zeros(g.hshape)
        extra = src(t)
        return (Nth, np.broadcast_to(extra.get("theta1", 0.0), g.shape),
                extra.get("b1", np.zeros(g.hshape)))

    Nth_n, Sth_n, Nb_n = explicit(wall_flux_arr(state.theta1, g), state.b1, state.t)

    # predictor: backward Euler diffusion, forward Euler couplings.  The
    # corrector reads the predicted temperature only through its wall flux,
    # so only its x1-mean column is solved for (module docstring)
    column = state.theta1.mean(axis=-1) + dt * Nth_n.mean()
    if Sth_n is not None:
        column += dt * Sth_n.mean(axis=-1)
    col_star = helmholtz_solve_column(column, wb.mean(), wt.mean(), dt * cth, g)
    b_star = _diag_implicit(state.b1 + dt * Nb_n, nu_b, dt, g)

    # corrector: Crank-Nicolson diffusion, Heun couplings, in the modes the
    # state carries; one inverse transform gives the new temperature
    Nth_s, Sth_s, Nb_s = explicit(wall_flux_arr(col_star, g), b_star, state.t + dt)
    modes = _crank_nicolson(state, 0.5 * dt * (Nth_n + Nth_s),
                            None if src is None else 0.5 * dt * (Sth_n + Sth_s), cfg)
    th_new = from_sine_modes(modes, wb, wt, g)

    spec_b = hfft(state.b1, g)
    spec_b = (spec_b * (1.0 - 0.5 * dt * nu_b * g.ksq)
              + 0.5 * dt * hfft(Nb_n + Nb_s, g)) / (1.0 + 0.5 * dt * nu_b * g.ksq)
    b_new = hifft(spec_b, g)

    new = ObmState(g, th_new, b_new, cfg.dpdt * mean_arr(th_new, g), state.t + dt)
    modes.flags.writeable = False
    new.__dict__["modes"] = modes  # the cached property, handed over
    return new


def _continuity_residual(old: ObmState, new: ObmState, cfg: ObmConfig) -> float:
    """Continuity diagnostic of the step of size cfg.dt from ``old`` to
    ``new``: the transported density equation is not solved (nothing is
    advected), so its residual on the derived rho1 is the rate of change of
    boussinesq_rho, whose G term cancels."""
    g = cfg.grid
    d_th = new.theta1 - old.theta1
    d_A = cfg.ref.b_bar * (new.b1 - old.b1)
    d_rho = cfg.dpdt * (d_th - mean_arr(d_th, g)) + (d_A - d_A.mean())
    return float(np.max(np.abs(d_rho))) / (cfg.dpdr * cfg.dt)


def magnetic_energy(state: ObmState) -> float:
    """(1/2) int (b1)^2 dx over the strip volume."""
    return 0.5 * state.grid.volume * float(np.mean(state.b1 ** 2))


# the most steps a run may take to reach t_end: run_prim holds an automatic
# dt to it and the command line any configured dt; the command line bounds
# its integer keys by it too
_MAX_STEPS = 2 ** 20
# the most points the command line lets a grid have: a field of 2**23 float64
# values takes 64 MiB, and a run holds a few dozen (2048 x 2049 fits)
_MAX_POINTS = 2 ** 23


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
    continuity residual of the step to the row's state); the kinetic energy
    of the pinned flow is 0.0."""
    n_steps, dt = _landing_step(state.t, cfg.t_end, cfg.dt)
    if n_steps and dt != cfg.dt:
        cfg = replace(cfg, dt=dt)
    rows = []
    for _ in range(n_steps):
        new = step_obm(state, cfg, src=src)
        rows.append((new.t, mean_arr(new.theta1, new.grid), new.chi, 0.0,
                     magnetic_energy(new), _continuity_residual(state, new, cfg)))
        state = new  # the previous state is released here
        if on_step is not None:
            on_step(state)
    return state, rows

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
divergence cleaning is needed and mean(B3) = c3 is conserved exactly.  The
wall condition B1 = 0 becomes d3 a = 0 at the walls, imposed by solving the
one-sided stencil for the wall value of a; B2 = 0 is imposed directly.

Time stepping is the explicit three-stage SSP-RK3 of Shu and Osher, its
stages at t, t + dt and t + dt/2, with boundary conditions re-imposed after
each stage.  :func:`cfl_limits` takes dt from its stability region
|1 + z + z^2/2 + z^3/6| <= 1: the largest dt whose rectangle of linearized
modes, diffusion along the negative real axis and waves along the imaginary
axis, fits in the region.  The region's slice at Re z = x is the segment
|Im z| <= h(x), and h rises from sqrt(3) at x = 0 to 2.3745 near x = -0.744,
then falls to 0 at x = -2.5127; so the rectangle fits when its height is at
most sqrt(3) and its far corner lies in the region.
Temperature is advanced in internal-energy form

    rho de_dtheta Dtheta/Dt = -theta dp_dtheta div u + eps^2 S:grad u
                              + div(kappa grad theta) + zeta |curl B|^2

(equivalent to the entropy balance for smooth flows via Gibbs' relation);
the entropy production terms are evaluated diagnostically as explicit
non-negative quadratic forms.  Tangential slip walls use the stress-free
reduction of the Navier condition: the wall rows of d3 u1 and d3 u2 are
zeroed when the viscous stress is assembled, which makes the tangential
stress vanish exactly at the walls (u3 = 0 there already forces
d1 u3 = 0 along the wall).

The right side is pseudo-spectral: each nonlinear flux is transformed once,
the 2/3-rule mask, d1 and the x3 stencil (along the other axis, so they
commute) act on the spectrum, and each tendency component is one inverse
transform.  A state's EOS, transport, B and derivatives are built once
(:func:`_state_work`).  a and B2 carry no x1 mode above n1 // 3: the
:class:`PrimitiveState` constructor projects them and the linear stages keep
them there, so the Lorentz force reads B and J as they are.  B is derived
data: it lives in the work, and ``PrimitiveState.B`` assembles a fresh copy
on each read.  A step transforms 120 fields: three states' work (14 each,
B's 2 included) and three right sides (26 each); a :func:`run_prim` step,
its row included, transforms 122.

Every array of the step lives until its last read and no longer.  The right
side consumes its work, dropping each field after its last read; each stage
state's work holds only what the right side reads; and the drivers hand a
work over without keeping a reference (from CPython 3.11 a call's arguments
belong to the callee).  A caller that keeps the work gets the same result
and keeps the memory.  A :func:`run_prim` step then peaks at the start of
its second and of its third right side, where a stage state (7 fields) and
its work (28) stand in for the work it started with (31): 7 to 8 fields of
the grid above what is held when the step starts.

Mass bookkeeping: the trapezoid rule does not telescope against the
one-sided first-derivative closures, so -div(rho u) carries an O(h^2)
mean defect even though the boundary flux vanishes.  The continuity
tendency subtracts that uniform defect, making total mass conservation
exact to rounding without touching the local truncation order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
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
    field_array,
    hfft,
    hifft,
    mean_arr,
)
from .obm import _MAX_STEPS, _check_potential_and_walls, _landing_step

__all__ = [
    "CflError",
    "PositivityError",
    "PrimConfig",
    "PrimitiveState",
    "StepRow",
    "fix_flux_walls",
    "entropy_production_terms",
    "cfl_limits",
    "step_prim",
    "run_prim",
    "psi_extension",
    "a_from_b3_profile",
    "snapshot_fields",
]


class CflError(RuntimeError):
    """Raised when a step's dt exceeds the stability bound, or when the
    automatic dt collapses."""


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
    safety: float = 0.6  # fraction of the stability bound used by the run driver

    def __post_init__(self):
        g = self.grid
        if g.geometry is not Geometry.STRIP2:
            raise FieldError("the primitive solver runs on the 2.5D strip")
        self.G, self.theta_B = _check_potential_and_walls(g, self.G, self.theta_B)
        if not 0 < self.safety <= 1:
            raise FieldError(f"safety must lie in (0, 1], got {self.safety}")
        # gravity acceleration components, cached
        self.G1 = ddx1_arr(self.G, g)
        self.G3 = ddx3_arr(self.G, g)


@dataclass
class PrimitiveState:
    """Primitive unknowns; the magnetic field lives in (a, c3, B2).  After its
    checks, construction projects a and B2 onto the x1 modes up to n1 // 3
    row by row, which keeps the wall relation of a and the mean c3 of B3."""

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
        for what in ("rho", "theta", "a", "B2"):
            setattr(self, what, field_array(getattr(self, what), g.shape, what))
        self.u = field_array(self.u, (3,) + g.shape, "u")
        if np.min(self.rho) <= 0.0:
            raise FieldError(f"rho must stay positive, min = {np.min(self.rho):.3e}")
        if np.min(self.theta) <= 0.0:
            raise FieldError(f"theta must stay positive, min = {np.min(self.theta):.3e}")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise FieldError(f"eps must be positive, got {self.eps}")
        if not (np.isfinite(self.c3) and np.isfinite(self.t)):
            raise FieldError(f"c3 and t must be finite, got {self.c3} and {self.t}")
        self.a = dealias_arr(self.a, g)
        self.B2 = dealias_arr(self.B2, g)

    @property
    def B(self) -> np.ndarray:
        """Assembled (3, n3, n1) magnetic field; div B = 0 to rounding.  A
        fresh read-only array on each read, cached nowhere: the step reads
        the B of a state's work, which dies with the work."""
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
    spec = hfft(field_array(b3, (grid.n1,), "b3"), grid)
    c3 = float(spec[0].real) / grid.n1
    k = grid.k1r_d.copy()
    dead = k == 0.0
    k[dead] = 1.0
    aspec = spec / (1j * k)
    aspec[dead] = 0.0
    a_line = hifft(aspec, grid)
    return np.broadcast_to(a_line, grid.shape).copy(), c3


def _strain(d1u, d3u):
    """(div u, D) on the 2.5D strip from the two nonzero rows d1 u and d3 u of
    grad u, with D = grad u + grad u^T - (2/3) div u I given by the entries
    the stress divergence reads, (D11, D12, D13, D23, D33); D12 and D23 are
    d1 u2 and d3 u2 themselves, and D22 = -(2/3) div u."""
    divu = d1u[0] + d3u[2]
    third = (2.0 / 3.0) * divu
    return divu, (d1u[0] + d1u[0] - third, d1u[1], d1u[2] + d3u[0], d3u[1],
                  d3u[2] + d3u[2] - third)


def _dissipation(mu, divu, D):
    """S : grad u of the Newtonian stress S = mu D, evaluated as the
    manifestly non-negative quadratic form (mu/2)|D|^2, |D|^2 summed over
    the nine entries in row order."""
    D11, D12, D13, D23, D33 = D
    d22 = (2.0 / 3.0) * divu
    q12, q13, q23 = D12 * D12, D13 * D13, D23 * D23
    sq = D11 * D11 + q12 + q13 + q12 + d22 * d22 + q23 + q13 + q23 + D33 * D33
    return 0.5 * mu * sq


def _curl25(B: np.ndarray, grid: Grid) -> np.ndarray:
    """curl on the 2.5D strip (d2 = 0)."""
    return np.stack([
        -ddx3_arr(B[1], grid),
        ddx3_arr(B[0], grid) - ddx1_arr(B[2], grid),
        ddx1_arr(B[1], grid),
    ])


# A state's EOS (rho e, rho s) and transport, B, d1 u, d3 u, :func:`_strain`,
# phi, J = curl B, zeta |J|^2 and grad theta; passed to each reader, never
# cached on the state, which would keep it alive for a step.  The bound reads
# the EOS and B alone.
_StateWork = namedtuple(
    "_StateWork", "p dp_drho dp_dtheta de_dtheta rho_e rho_s mu kappa zeta B "
    "d1u d3u divu D phi J joule d1th d3th", defaults=[None] * 10)


def _bound_work(state: PrimitiveState, cfg: PrimConfig) -> _StateWork:
    """The part of the state's work that the bound reads: one EOS pass and B."""
    return _StateWork(*thermo._eos_and_transport(state.rho, state.theta, cfg.gas),
                      B=state.B)


def _state_work(state: PrimitiveState, cfg: PrimConfig, row: bool = True) -> _StateWork:
    """The state's work, from one EOS pass and 14 transformed fields.  Without
    ``row`` it leaves out dp/drho, rho e and rho s, which only the bound and
    the row read: the stage state's work is the right side's alone.  Zeroed
    wall rows of d3 u1 and d3 u2 make the strain's tangential stress vanish
    there (stress-free slip walls)."""
    g = state.grid
    w = _bound_work(state, cfg)
    if not row:
        w = w._replace(dp_drho=None, rho_e=None, rho_s=None)
    d1u = np.stack([ddx1_arr(c, g) for c in state.u])
    d3u = np.stack([ddx3_arr(c, g) for c in state.u])
    d3u[:2, [0, -1]] = 0.0
    divu, D = _strain(d1u, d3u)
    J = _curl25(w.B, g)
    return w._replace(d1u=d1u, d3u=d3u, divu=divu, D=D, J=J,
                      phi=_dissipation(w.mu, divu, D),
                      joule=w.zeta * (J[0] ** 2 + J[1] ** 2 + J[2] ** 2),
                      d1th=ddx1_arr(state.theta, g), d3th=ddx3_arr(state.theta, g))


def _tendencies(state: PrimitiveState, cfg: PrimConfig, w: _StateWork):
    """Time derivatives of (rho, u, theta, a, B2) from the state's work, with
    26 transformed fields.  Truncated on the spectrum: the mass fluxes, the
    stress rows with -d1 p / eps^2 folded into the first, each distinct entry
    transformed once (S31 = S13), the d1 heat flux and the electric field:
    their modes above n1 // 3 are dropped, and the inverse transform pads
    them with zeros.  Left physical: d3 p and
    d3(kappa d3 theta), untruncated, and the advection, Lorentz, Joule and
    dissipation products, which the final truncation of u_t and theta_t
    covers, since dz(dz(a) + b) = dz(a + b).  Returns new arrays.

    It consumes the work: each field is dropped after its last read.  The
    temperature comes first, as eight of the work's fields serve it alone;
    the stress entries and the electric field are formed and transformed one
    at a time."""
    g = state.grid
    eps = state.eps
    rho, u, theta = state.rho, state.u, state.theta
    m = g.n1_kept
    ik = 1j * g.k1r_d[:m]  # d1 on a truncated spectrum
    phys, ddx3 = partial(hifft, grid=g), partial(ddx3_arr, grid=g)

    def spec(arr):  # the truncated spectrum
        return hfft(arr, g)[..., :m]

    p, mu, zeta, B, J, d1u, d3u, D = w.p, w.mu, w.zeta, w.B, w.J, w.d1u, w.d3u, w.D
    dp_dtheta, de_dtheta, kappa, divu = w.dp_dtheta, w.de_dtheta, w.kappa, w.divu
    phi, joule, d1th, d3th = w.phi, w.joule, w.d1th, w.d3th
    del w

    # temperature in internal-energy form
    heat_flux_div = phys(ik * spec(kappa * d1th)) + ddx3(kappa * d3th)
    del kappa
    theta_t = (-theta * dp_dtheta * divu + eps ** 2 * phi + heat_flux_div
               + joule) / (rho * de_dtheta) - (u[0] * d1th + u[2] * d3th)
    del dp_dtheta, divu, phi, heat_flux_div, joule, de_dtheta, d1th, d3th

    # continuity in divergence form with the uniform mean-defect correction
    div_flux = phys(ik * spec(rho * u[0]) + ddx3(spec(rho * u[2])))
    rho_t = -div_flux + mean_arr(div_flux, g)
    del div_flux

    # induction through the electric field E = zeta curl B - u x B, one
    # component at a time, then the Lorentz force: the last reads of B and J
    cross = cross3(u, B, out=np.empty((3,) + g.shape))  # the cross products' scratch
    a_t = -phys(spec(zeta * J[1] - cross[1]))
    # differentiated form of the wall constraint d3 a = 0 (an O(h^3)
    # perturbation since d3 E2 vanishes at the walls for B1|wall = 0);
    # as a linear invariant it then propagates exactly through any
    # Runge-Kutta stage combination, unlike a post-stage reset, which
    # costs a temporal order
    a_t[0] = (4.0 * a_t[1] - a_t[2]) / 3.0
    a_t[-1] = (4.0 * a_t[-2] - a_t[-3]) / 3.0
    E0 = spec(zeta * J[0] - cross[0])
    B2_t = phys(ik * spec(zeta * J[2] - cross[2]) - ddx3(E0))
    del E0, zeta
    np.divide(cross3(J, B, out=cross), eps ** 2, out=cross)  # the Lorentz force
    del B, J

    # momentum: the stress mu D and pressure, gravity, Lorentz, advection
    D11, D12, D13, D23, D33 = D
    del D
    s13 = spec(mu * D13)
    del D13
    u_t = np.empty((3,) + g.shape)
    phys(ik * spec(mu * D11 - p / eps ** 2) + ddx3(s13), out=u_t[0])
    del D11
    phys(ik * spec(mu * D12) + ddx3(spec(mu * D23)), out=u_t[1])
    del D12, D23
    phys(ik * s13 + ddx3(spec(mu * D33)), out=u_t[2])
    del s13, D33, mu
    u_t[2] -= ddx3(p) / eps ** 2
    del p
    u_t[0] += rho * cfg.G1 / eps
    u_t[2] += rho * cfg.G3 / eps
    u_t += cross  # the Lorentz force
    u_t /= rho
    advection = np.multiply(u[0], d1u, out=cross)
    del d1u
    for i in range(3):
        advection[i] += u[2] * d3u[i]
    del d3u
    u_t -= advection
    del advection, cross

    return rho_t, phys(spec(u_t), out=u_t), phys(spec(theta_t), out=theta_t), a_t, B2_t


def entropy_production_terms(state: PrimitiveState, cfg: PrimConfig):
    """The three entropy production densities (viscous, Joule, conductive),
    each non-negative by construction."""
    return _entropy_terms(state, _state_work(state, cfg), False)


def _entropy_terms(state: PrimitiveState, w: _StateWork, fault: bool):
    """Body of :func:`entropy_production_terms`, given the state's work;
    ``fault`` flips the viscous term's sign (``run_prim(entropy_fault=)``)."""
    theta = state.theta
    phi = w.phi * state.eps ** 2 / theta
    if fault:
        phi = -phi
    joule = w.joule / theta
    cond = w.kappa * (w.d1th ** 2 + w.d3th ** 2) / theta ** 2
    return phi, joule, cond


def cfl_limits(state: PrimitiveState, cfg: PrimConfig) -> float:
    """Largest admissible dt: the largest tau for which the rectangle
    [-tau nu_max s2, 0] x [-tau c_max s1, tau c_max s1] lies in the SSP-RK3
    stability region |1 + z + z^2/2 + z^3/6| <= 1.  c_max bounds the fast
    magnetosonic speed (over eps) plus |u| through the closed-form equation
    of state, nu_max the diffusivities, and s1 = hypot(k1, 1/dx3), s2 = k1^2
    + 1/dx3^2 bound the discrete symbol: k1 = pi (n1 // 3) is the largest
    kept x1 wavenumber and 1/dx3 the largest symbol of the central x3
    stencil.  A linearized mode has dt lambda = -dt nu (s1'^2 + s3'^2) +- i
    dt c hypot(s1', s3') in that rectangle.  The region's slice at Re z = x
    is |Im z| <= h(x); h rises from sqrt(3) at x = 0 to 2.3745 near
    x = -0.744 and falls to 0 at x = -2.5127.  So tau is the smaller of
    sqrt(3) / (c_max s1) and the point where the corner's ray tau (-nu_max
    s2 + i c_max s1) leaves the region.  It reads the EOS pass and B alone."""
    return _cfl_limit(state, _bound_work(state, cfg))


def _cfl_limit(state: PrimitiveState, w: _StateWork) -> float:
    """Body of :func:`cfl_limits`, given the state's work."""
    rho, g = state.rho, state.grid
    B = w.B
    bsq = B[0] ** 2 + B[1] ** 2 + B[2] ** 2
    c = np.sqrt(w.dp_drho + (4.0 / 3.0) * w.p / rho + bsq / rho)
    umax = float(np.max(np.abs(state.u)))
    c_max = float(np.max(c)) / state.eps + umax
    nu = np.maximum((4.0 / 3.0) * w.mu / rho, w.kappa / (rho * w.de_dtheta))
    nu_max = max(float(np.max(nu)), float(np.max(w.zeta)))
    k1, k3 = math.pi * (g.n1 // 3), 1.0 / g.dx3
    return _rk3_rectangle(nu_max * (k1 ** 2 + k3 ** 2), c_max * math.hypot(k1, k3))


def _rk3_rectangle(x: float, y: float) -> float:
    """Largest tau for which [-tau x, 0] x [-tau y, tau y] lies in the
    SSP-RK3 stability region, for x, y >= 0 not both 0; 0.0 if either is
    inf.  Bisection along the corner's ray, scaled so that max(x, y) = 1:
    the ray's part in the region is one segment from 0 that ends before
    |z| = 2.54, and the height cap tau y <= sqrt(3) is another."""
    m = max(x, y)
    if m == math.inf:
        return 0.0
    z, cap = complex(-x, y) / m, math.sqrt(3.0)
    lo, hi = 0.0, 3.0
    for _ in range(60):
        s = 0.5 * (lo + hi)
        w = s * z
        if s * z.imag <= cap and abs(1.0 + w * (1.0 + w * (0.5 + w / 6.0))) <= 1.0:
            lo = s
        else:
            hi = s
    return lo / m


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
    """One Shu-Osher SSP-RK3 step of size dt, its stages at t, t + dt and
    t + dt/2, with boundary conditions re-imposed after each stage.  Its
    stability polynomial is 1 + z + z^2/2 + z^3/6; at dt up to
    :func:`cfl_limits`, every linearized mode keeps |R| <= 1.

    ``src(t)`` may return a dict with optional keys rho, u, theta, a, B2
    holding additive source fields (manufactured-solution hook), a and B2
    projected as the state's own.  Raises CflError if dt exceeds the
    advective/diffusive bound and PositivityError (carrying the pre-step
    state) if rho or theta would leave the admissible cone."""
    work = [_state_work(state, cfg)]  # handed over, as in :func:`run_prim`
    return _step_prim(state, cfg, dt, _cfl_limit(state, work[0]), src, work.pop())


def _step_prim(state: PrimitiveState, cfg: PrimConfig, dt: float, limit: float,
               src, work: _StateWork) -> PrimitiveState:
    """Body of :func:`step_prim`, given the state's stability bound
    ``limit`` and work, so that a driver which has already built them for
    choosing dt does not build them again.  The work is handed to the first
    right side, which frees it field by field if the caller kept no
    reference; each stage state's work is its right side's alone.  Each
    stage is summed in its tendencies' storage in increment form, b + c ((s
    - b) + dt f(s)), which keeps the mass to rounding of its increments, and
    assembled without the constructor, whose checks :func:`_check_admissible`
    has made and whose projection the linear stages keep."""
    if dt > limit * (1.0 + 1e-12):
        raise CflError(f"dt = {dt:.3e} exceeds the stability bound {limit:.3e} "
                       f"in the step from t = {state.t!r}")
    g = state.grid
    names = ("rho", "u", "theta", "a", "B2")

    def add_src(parts, t):
        extra = {} if src is None else src(t)  # only read: a hook may hand them out again
        for p, key in zip(parts, names):
            if key in extra:
                p += extra[key] if key not in ("a", "B2") else dealias_arr(extra[key], g)
        return parts

    def assemble(parts, t):  # the stage state, its walls imposed and checked
        _impose_bcs(*parts, cfg, state.eps)
        _check_admissible(parts, state)
        new = object.__new__(PrimitiveState)
        vars(new).update(zip(names, parts), grid=g, c3=state.c3, eps=state.eps, t=t)
        return new

    base = (state.rho, state.u, state.theta, state.a, state.B2)
    stage = [work]  # the right side gets the only reference
    del work
    rates = add_src(_tendencies(state, cfg, stage.pop()), state.t)
    for r, b in zip(rates, base):  # s1 = b + dt f(b)
        np.add(np.multiply(r, dt, out=r), b, out=r)
    s = assemble(rates, state.t + dt)
    for c, t in ((0.25, state.t + dt / 2), (2.0 / 3.0, state.t + dt)):
        rates = add_src(_tendencies(s, cfg, _state_work(s, cfg, row=False)), s.t)
        for r, b, p in zip(rates, base, (s.rho, s.u, s.theta, s.a, s.B2)):
            r *= dt  # s' = b + c ((s - b) + dt f(s)); the stage state is spent
            r += np.subtract(p, b, out=p)
            r *= c
            r += b
        del s, p
        s = assemble(rates, t)
    return s


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


def _energy(state: PrimitiveState, B, roe, psi_rho_s) -> list:
    """int [ (1/2) rho |u|^2 + eps^-2 (rho e + |B|^2 / 2 - q) ] for each q
    in ``psi_rho_s``, given B and rho e.  The row passes q = 0 and q = psi
    rho s, psi > 0 the test temperature, for its total and ballistic
    energies from one rho e."""
    g = state.grid
    u = state.u  # |u|^2 and |B|^2 summed in the order of .sum(axis=0), unstacked
    kinetic = 0.5 * state.rho * (u[0] ** 2 + u[1] ** 2 + u[2] ** 2)
    inner = roe + 0.5 * (B[0] ** 2 + B[1] ** 2 + B[2] ** 2)
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


def _row(state: PrimitiveState, w: _StateWork, psi, fault: bool) -> StepRow:
    """The :func:`run_prim` row of a new state, from its work; each of the
    row's fields dies once its numbers are taken.  ``psi`` is
    :func:`psi_extension`'s, a blend of the two wall temperatures that the
    step imposed and :func:`_check_admissible` found positive, so psi > 0."""
    g = state.grid
    phi, joule, cond = _entropy_terms(state, w, fault)
    production = g.volume * mean_arr(phi + joule + cond, g)
    floor = min(float(np.min(term)) for term in (phi, joule, cond))
    del phi, joule, cond
    divB_max = float(np.max(np.abs(ddx1_arr(w.B[0], g) + ddx3_arr(w.B[2], g))))
    return StepRow(
        state.t,
        g.volume * mean_arr(state.rho, g),
        g.volume * mean_arr(state.rho * state.u[0], g),
        *_energy(state, w.B, w.rho_e, (0.0, psi * w.rho_s)),
        divB_max,
        float(np.min(state.rho)),
        float(np.min(state.theta)),
        production,
        floor,
    )


def run_prim(state: PrimitiveState, cfg: PrimConfig, t_end: float,
             dt: float = None, src=None, on_step=None, entropy_fault: bool = False):
    """March to t_end; returns (final state, one :class:`StepRow` per step).

    Each row is the step's one diagnostics pass: t, mass, momentum1,
    total_energy, ballistic_energy, divB_max, rho_min, theta_min, and the
    integral (entropy_production) and pointwise minimum (entropy_floor) of
    the step's :func:`entropy_production_terms`, with the viscous term's sign
    flipped when ``entropy_fault`` is set (the command-line fault hook).
    Each step is at most dt, or with dt = None cfg.safety times the current
    stability bound, shrunk by the common landing rule so the run ends
    exactly on t_end; ``on_step`` then gets the new state.  The a and B2
    sources are projected as in :func:`step_prim`.  A lost positivity raises
    :class:`PositivityError`, which carries the last valid state; an
    automatic dt that collapses, so that the rest of the run would take more
    than 2**20 steps, raises :class:`CflError`."""
    if not np.isfinite(t_end):
        raise FieldError(f"t_end must be finite, got {t_end}")
    if not (dt is None or dt > 0):
        raise FieldError(f"dt must be positive, got {dt}")
    rows = []
    psi = psi_extension(cfg, state.eps)
    # the state's work, read by the row and the bound; a one-item list so that
    # the step gets the only reference and its first right side consumes it
    work = [_state_work(state, cfg)]
    while True:
        limit = _cfl_limit(state, work[0])
        bound = cfg.safety * limit if dt is None else dt
        if dt is None and not bound * _MAX_STEPS >= t_end - state.t:
            raise CflError(f"the automatic dt collapsed to {bound:.3e} after step "
                           f"{len(rows)}, at t = {state.t!r}: more than {_MAX_STEPS} "
                           f"steps would be left to t_end = {t_end!r}")
        n_left, step = _landing_step(state.t, t_end, bound)
        if n_left == 0:
            break
        state = _step_prim(state, cfg, step, limit, src, work.pop())
        work.append(_state_work(state, cfg))
        rows.append(_row(state, work[0], psi, entropy_fault))
        if on_step is not None:
            on_step(state)
        if n_left == 1:
            break  # landed on t_end
    return state, rows

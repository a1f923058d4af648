"""Manufactured forced solutions for order verification of both solvers.

Closed-form trigonometric fields are pushed through the continuous
equations by hand: every exact field is an envelope in t times one cosine
or sine in x1 and one in x3, plus a constant, so each derivative the
equations read has a closed form, and the residual becomes an additive
source fed to the solvers through their ``src`` hooks.  The discrete
solution has to track the chosen formula and every discretization defect
shows up as a measured convergence error instead of being absorbed into the
data.  ``tests/mms_oracle.py`` derives the same sources symbolically.

Both cases use band-limited horizontal profiles (a single cosine mode), so
the pseudo-spectral direction is exact up to the tiny tails generated by
the nonlinear terms, and a vertical sweep (n3 in 33, 65, 129 halves the
wall spacing) isolates the second-order finite differences in x3 together
with the time stepper.  A horizontal sweep at fixed n3 should show a flat
error floor rather than algebraic decay; :func:`prim_horizontal` and
:func:`obm_horizontal` record that floor.

Wall compatibility is built into the formulas: wall-normal velocity,
temperature deviations and tangential magnetic components vanish at the
walls.  The compressible case additionally gives the temperature a zero
wall slope (a sin^2 vertical profile).  That choice matters: the in-plane
flux function is advanced through a differentiated wall constraint applied
before sources are added, so the scheme stays second order only when the
flux-function source itself has zero wall-normal slope, and theta enters
that source through the magnetic diffusivity zeta(theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import thermo
from .fields import FieldError, Geometry, Grid, l2_arr
from .mhd import PrimConfig, PrimitiveState, run_prim
from .obm import ObmConfig, ObmState, default_potential, run_obm

__all__ = [
    "PrimCase",
    "ObmCase",
    "ConvergenceTable",
    "prim_vertical",
    "prim_horizontal",
    "obm_vertical",
    "obm_horizontal",
]

_PI = np.pi


def _evaluate(fns, tval: float, grid: Grid) -> dict:
    """Closed-form fields or sources on the grid.

    ``fns(t, x1, x3)`` returns a dict of arrays that broadcast to the strip,
    except b1, which is depth independent and lands on ``grid.hshape``.
    Velocity components u1, u2, u3 are stacked into u."""
    out = fns(float(tval), grid.x1, grid.coords()["x3"])
    for key, val in out.items():
        out[key] = np.broadcast_to(val, grid.hshape if key == "b1" else grid.shape).copy()
    if "u1" in out:
        out["u"] = np.stack([out.pop(k) for k in ("u1", "u2", "u3")])
    return out


class _Case:
    """What both cases share: the gas and reference defaults, the exact
    fields on a strip grid, the source hook and the per-field errors of the
    state fields named in ``_error_fields``."""

    def __init__(self, gas: thermo.GasParams | None = None,
                 ref: thermo.ReferenceState | None = None):
        self.gas = thermo.GasParams() if gas is None else gas
        self.ref = thermo.ReferenceState() if ref is None else ref

    def fields(self, tval: float, grid: Grid) -> dict:
        """Exact fields on the grid at time tval."""
        if grid.geometry is not Geometry.STRIP2:
            raise FieldError("the manufactured cases run on the 2.5D strip")
        return _evaluate(self.exact, tval, grid)

    def source(self, grid: Grid):
        """Additive source hook ``src(t)`` for the solver's step and run.  It
        keeps its last two (t, fields) pairs: a compressible step asks for t,
        t + dt and t + dt/2, and the next step's first stage for the t + dt
        before last; a limit step's end is the next one's start.  The solvers
        only read the fields."""
        return lru_cache(maxsize=2)(partial(_evaluate, self.sources, grid=grid))

    def error(self, state) -> dict:
        """Per-field L2 errors against the exact fields at state.t."""
        f = self.fields(state.t, state.grid)
        out = {name: l2_arr(getattr(state, name) - f[name], state.grid)
               for name in self._error_fields}
        out["combined"] = float(np.sqrt(sum(v ** 2 for v in out.values())))
        return out


class PrimCase(_Case):
    """Forced compressible run with a known closed-form solution.

    The exact fields are single-mode trigonometric polynomials with gentle
    time envelopes; the sources are the residuals of the continuous
    equations under the default P of the gas's p_inf (another P raises
    FieldError) and its transport laws.  ``exact(t, x1, x3)`` and
    ``sources(t, x1, x3)`` return the fields and residuals at broadcast
    coordinates, keyed rho, u1, u2, u3, theta, a, B2.
    """

    eps = 0.5  # Mach number of the run
    _error_fields = ("rho", "u", "theta", "a", "B2")

    def __init__(self, gas: thermo.GasParams | None = None,
                 ref: thermo.ReferenceState | None = None):
        super().__init__(gas, ref)
        P = self.gas.structure()
        if type(P) is not thermo.DefaultPStructure or P.p_inf != self.gas.p_inf:
            raise FieldError(f"the compressible sources assume the default "
                             f"structural function P, got {P!r}")

    def _exact_with_derivatives(self, t, x1, x3):
        """The exact fields and the derivatives the residuals read."""
        rb, tb, bb = self.ref.rho_bar, self.ref.theta_bar, self.ref.b_bar
        c1, s1, c3, s3 = (np.cos(_PI * x1), np.sin(_PI * x1),
                          np.cos(_PI * x3), np.sin(_PI * x3))
        cc, ss, sc, cs = c1 * c3, s1 * s3, s1 * c3, c1 * s3
        # envelopes and their rates
        R, R_t = 0.08 * rb * np.cos(2 * t), -0.16 * rb * np.sin(2 * t)
        T, T_t = 0.08 * tb * (1 + np.sin(2 * t) / 2), 0.08 * tb * np.cos(2 * t)
        U = (0.08 * (1 + np.sin(3 * t) / 2), 0.06 * np.cos(2 * t),
             0.08 * (1 + np.cos(2 * t) / 2))
        U_t = (0.12 * np.cos(3 * t), -0.12 * np.sin(2 * t), -0.08 * np.sin(2 * t))
        A, A_t = 0.04 * (1 + np.sin(t) / 2), 0.02 * np.cos(t)
        K, K_t = 0.05 * (1 + np.cos(t) / 2), -0.025 * np.sin(t)

        # sin^2 vertical profile: zero value at the walls for the Dirichlet
        # rows and zero slope so that zeta(theta) is wall-flat (see module
        # docstring)
        prof1, prof3 = 1 + c1 / 2, s3 ** 2
        u = (U[0] * cc, U[1] * cc, U[2] * ss)
        f = {"rho": rb + R * cc, "u1": u[0], "u2": u[1], "u3": u[2],
             "theta": tb + T * prof1 * prof3, "a": A * cc, "B2": K * cs}
        d_rho = (-_PI * R * sc, -_PI * R * cs)
        d_th = (-_PI / 2 * T * s1 * prof3, 2 * _PI * T * prof1 * s3 * c3)
        lap_th = _PI ** 2 * T * (2 * prof1 * (c3 ** 2 - prof3) - c1 * prof3 / 2)
        # g1[j] = d1 u_j and g3[j] = d3 u_j; d2 vanishes on the 2.5D strip
        g1 = (-_PI * U[0] * sc, -_PI * U[1] * sc, _PI * U[2] * cs)
        g3 = (-_PI * U[0] * cs, -_PI * U[1] * cs, _PI * U[2] * sc)
        # grad div u; every velocity component has Laplacian -2 pi^2 u_j
        grad_div = (_PI ** 2 * (U[2] - U[0]) * cc, 0.0, -_PI ** 2 * (U[2] - U[0]) * ss)
        B = (_PI * A * cs, f["B2"], bb - _PI * A * sc)
        J = (-_PI * K * cc, 2 * _PI ** 2 * f["a"], -_PI * K * ss)
        rates = {"rho": R_t * cc, "u1": U_t[0] * cc, "u2": U_t[1] * cc,
                 "u3": U_t[2] * ss, "theta": T_t * prof1 * prof3,
                 "a": A_t * cc, "B2": K_t * cs}
        return f, rates, d_rho, d_th, lap_th, g1, g3, grad_div, B, J

    def exact(self, t, x1, x3) -> dict:
        """The exact fields at (t, x1, x3)."""
        return self._exact_with_derivatives(t, x1, x3)[0]

    def sources(self, t, x1, x3) -> dict:
        """Residuals of the continuous equations at the exact fields: all
        keys from one pass, so the fields, the gas laws and the gradients
        are evaluated once."""
        gas, eps = self.gas, self.eps
        f, rates, d_rho, d_th, lap_th, g1, g3, grad_div, B, J = \
            self._exact_with_derivatives(t, x1, x3)
        rho, th = f["rho"], f["theta"]
        u = (f["u1"], f["u2"], f["u3"])

        # the default law p = rho theta + p_inf rho^(5/3) + a theta^4 / 3,
        # e = (3 (rho theta + p_inf rho^(5/3)) / 2 + a theta^4) / rho, and
        # the transport laws, by the chain rule
        dpdr = th + 5 / 3 * gas.p_inf * rho ** (2 / 3)
        dpdt = rho + 4 / 3 * gas.a * th ** 3
        dedt = 1.5 + 4 * gas.a * th ** 3 / rho
        mu, zet = gas.mu_low * (1 + th), gas.zeta_low * (1 + th)
        kap = gas.kappa_low * (1 + th ** gas.beta)
        dkap = gas.kappa_low * gas.beta * th ** (gas.beta - 1)

        divu = g1[0] + g3[2]
        # rows 1 and 3 of the strain D = grad u + grad u^T - (2/3) div u I
        D1 = (2 * g1[0] - 2 / 3 * divu, g1[1], g1[2] + g3[0])
        D3 = (D1[2], g3[1], 2 * g3[2] - 2 / 3 * divu)
        grad_p = (dpdr * d_rho[0] + dpdt * d_th[0], 0.0,
                  dpdr * d_rho[1] + dpdt * d_th[1])
        lorentz = (J[1] * B[2] - J[2] * B[1], J[2] * B[0] - J[0] * B[2],
                   J[0] * B[1] - J[1] * B[0])
        out = {"rho": rates["rho"] + d_rho[0] * u[0] + d_rho[1] * u[2] + rho * divu}
        for j, key in enumerate(("u1", "u2", "u3")):
            # div(mu D)_j = grad mu . D_j + mu (lap u_j + (1/3) d_j div u)
            div_s = (gas.mu_low * (d_th[0] * D1[j] + d_th[1] * D3[j])
                     + mu * (-2 * _PI ** 2 * u[j] + grad_div[j] / 3))
            rhs = (div_s - grad_p[j] / eps ** 2 - (rho / eps if j == 2 else 0.0)
                   + lorentz[j] / eps ** 2) / rho
            out[key] = rates[key] + u[0] * g1[j] + u[2] * g3[j] - rhs

        phi = mu / 2 * (D1[0] ** 2 + (2 / 3 * divu) ** 2 + D3[2] ** 2
                        + 2 * (D1[1] ** 2 + D1[2] ** 2 + D3[1] ** 2))
        joule = zet * (J[0] ** 2 + J[1] ** 2 + J[2] ** 2)
        # div(kappa grad theta) = kappa' |grad theta|^2 + kappa lap theta
        heat = dkap * (d_th[0] ** 2 + d_th[1] ** 2) + kap * lap_th
        rhs_th = (-th * dpdt * divu + eps ** 2 * phi + heat + joule) / (rho * dedt)
        out["theta"] = rates["theta"] + u[0] * d_th[0] + u[2] * d_th[1] - rhs_th

        # E = zeta J - u x B; S_a = d_t a + E2, S_B2 = d_t B2 - d1 E3 + d3 E1,
        # where d1 J3 = -pi^2 B2, d3 J1 = pi^2 B2, and div B = 0 cancels the
        # derivatives of B1 and B3 in curl(u x B)
        out["a"] = rates["a"] + zet * J[1] - (u[2] * B[0] - u[0] * B[2])
        out["B2"] = (rates["B2"] + gas.zeta_low * (d_th[1] * J[0] - d_th[0] * J[2])
                     + 2 * _PI ** 2 * zet * B[1] + divu * B[1] + u[0] * J[2]
                     - u[2] * J[0] - g1[1] * B[0] - g3[1] * B[2])
        return out

    def state(self, tval: float, grid: Grid) -> PrimitiveState:
        f = self.fields(tval, grid)
        return PrimitiveState(grid, rho=f["rho"], u=f["u"], theta=f["theta"],
                              a=f["a"], c3=self.ref.b_bar, B2=f["B2"],
                              eps=self.eps, t=float(tval))

    def config(self, grid: Grid) -> PrimConfig:
        return PrimConfig(grid, self.gas, self.ref, default_potential(grid),
                          (0.0, 0.0))


class ObmCase(_Case):
    """Forced limit-system run with a known closed-form solution.

    On the 2.5D strip the limit velocity is pinned to zero, so the case
    exercises the heat/induction pair: vertical conduction with Dirichlet
    walls, horizontal induction diffusion, the magnetic coupling through
    lap_h(b_bar b1), and the non-local mean drift, whose continuous
    counterpart is the domain mean of the Laplacian.  ``exact(t, x1, x3)``
    and ``sources(t, x1, x3)`` return theta1 at broadcast coordinates and
    b1 at x1 alone.
    """

    _error_fields = ("theta1", "b1")

    def __init__(self, gas: thermo.GasParams | None = None,
                 ref: thermo.ReferenceState | None = None):
        super().__init__(gas, ref)
        gas, rb, tb = self.gas, self.ref.rho_bar, self.ref.theta_bar
        # the limit system's coefficients at the reference state
        self._coeffs = (*thermo.alpha_cp(self.ref, gas),
                        float(thermo.kappa(tb, gas)), float(thermo.zeta(tb, gas)),
                        float(thermo.dp_dtheta(rb, tb, gas)),
                        float(thermo.de_dtheta(rb, tb, gas)))

    def exact(self, t, x1, x3) -> dict:
        """The exact fields at (t, x1, x3)."""
        return {"theta1": 0.1 * (1 + np.sin(2 * t) / 2) * np.sin(_PI * x3)
                * (1 + np.cos(_PI * x1) / 2),
                "b1": 0.05 * (1 + np.cos(3 * t) / 2) * np.cos(_PI * x1)}

    def sources(self, t, x1, x3) -> dict:
        """Residuals of the limit equations at the exact fields."""
        ref = self.ref
        rb, tb = ref.rho_bar, ref.theta_bar
        alpha, cp, kap, zet, dpdt, dedt = self._coeffs
        f = self.exact(t, x1, x3)
        env = 0.1 * (1 + np.sin(2 * t) / 2)
        s3, c1 = np.sin(_PI * x3), np.cos(_PI * x1)
        lap_th = -_PI ** 2 * env * s3 * (1 + c1)
        # non-local term: the domain mean of lap_th,
        # (1/2) int_-1^1 int_0^1 lap_th dx3 dx1 = -2 pi env
        drift = kap * (-2 * _PI * env) / (rb * dedt)
        lap_head = -_PI ** 2 * ref.b_bar * f["b1"]
        rhs = (kap * lap_th - tb * alpha * zet * lap_head
               + tb * alpha * dpdt * drift) / (rb * cp)
        return {"theta1": 0.1 * np.cos(2 * t) * s3 * (1 + c1 / 2) - rhs,
                "b1": -0.075 * np.sin(3 * t) * c1 + zet * _PI ** 2 * f["b1"]}

    def state(self, tval: float, grid: Grid) -> ObmState:
        f = self.fields(tval, grid)
        return ObmState.create(grid, f["theta1"], f["b1"], gas=self.gas,
                               ref=self.ref, t=float(tval))

    def config(self, grid: Grid, dt: float, t_end: float) -> ObmConfig:
        return ObmConfig(grid, self.gas, self.ref, default_potential(grid),
                         (0.0, 0.0), dt, t_end)


@dataclass
class ConvergenceTable:
    """Refinement sweep record: per-field L2 errors over grid levels."""

    axis: str                # refined parameter, "n3" or "n1"
    ns: tuple
    spacings: np.ndarray     # mesh width of the refined direction
    errors: dict             # field name -> errors over levels
    combined: np.ndarray

    @property
    def orders(self) -> np.ndarray:
        """Observed orders of the combined error between adjacent levels."""
        e, h = self.combined, self.spacings
        return np.log(e[:-1] / e[1:]) / np.log(h[:-1] / h[1:])

    @property
    def floor_ratio(self) -> float:
        """max/min of the combined error; near 1 on a spectral floor."""
        return float(np.max(self.combined) / np.min(self.combined))


def _sweep(case, axis: str, ns, fixed: int, t_end: float) -> ConvergenceTable:
    """Refinement sweep on the 2.5D strip: ``axis`` ("n3" or "n1") runs over
    ns while the other resolution stays at ``fixed``.  The compressible
    case steps at its CFL bound; the limit case at half the wall spacing,
    shrunk by the landing rule to end on t_end."""
    errs = []
    for n in ns:
        n1, n3 = (fixed, n) if axis == "n3" else (n, fixed)
        grid = Grid(Geometry.STRIP2, n1=n1, n3=n3)
        state, src = case.state(0.0, grid), case.source(grid)
        if isinstance(case, PrimCase):
            state, _ = run_prim(state, case.config(grid), t_end, src=src)
        else:
            cfg = case.config(grid, 0.5 * grid.dx3, t_end)
            state, _ = run_obm(state, cfg, src=src)
        errs.append(case.error(state))
    names = [k for k in errs[0] if k != "combined"]
    return ConvergenceTable(
        axis=axis, ns=tuple(int(n) for n in ns),
        spacings=np.array([1.0 / (n - 1) if axis == "n3" else 2.0 / n for n in ns]),
        errors={k: np.array([e[k] for e in errs]) for k in names},
        combined=np.array([e["combined"] for e in errs]))


def prim_vertical(case: PrimCase | None = None, n3_list=(33, 65, 129),
                  n1: int = 16, t_end: float = 0.05) -> ConvergenceTable:
    """Vertical refinement sweep of the compressible solver at fixed n1."""
    return _sweep(PrimCase() if case is None else case, "n3", n3_list, n1, t_end)


def prim_horizontal(case: PrimCase | None = None, n1_list=(16, 32, 64),
                    n3: int = 65, t_end: float = 0.05) -> ConvergenceTable:
    """Horizontal sweep at fixed n3; the error should sit on a flat floor."""
    return _sweep(PrimCase() if case is None else case, "n1", n1_list, n3, t_end)


def obm_vertical(case: ObmCase | None = None, n3_list=(33, 65, 129),
                 n1: int = 16, t_end: float = 0.125) -> ConvergenceTable:
    """Vertical refinement sweep of the limit solver, dt tied to the wall
    spacing (dt = dx3 / 2) so temporal and vertical errors shrink together
    at second order."""
    return _sweep(ObmCase() if case is None else case, "n3", n3_list, n1, t_end)


def obm_horizontal(case: ObmCase | None = None, n1_list=(8, 16, 32),
                   n3: int = 65, t_end: float = 0.125) -> ConvergenceTable:
    """Horizontal sweep of the limit solver at fixed n3 and dt = dx3 / 2."""
    return _sweep(ObmCase() if case is None else case, "n1", n1_list, n3, t_end)

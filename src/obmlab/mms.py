"""Manufactured forced solutions for order verification of both solvers.

Closed-form trigonometric fields are pushed through the continuous
equations symbolically; the residual becomes an additive source fed to the
solvers through their ``src`` hooks, so the discrete solution has to track
the chosen formula and every discretization defect shows up as a measured
convergence error instead of being absorbed into the data.

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
import sympy as sp

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

_T, _X1, _X3 = sp.symbols("t x1 x3", real=True)


def _evaluate(fns: dict, tval: float, grid: Grid) -> dict:
    """Closed-form fields or sources on the grid.

    Entries are callables of (t, x1, x3) evaluated on the strip, except b1,
    which is depth independent: a callable of (t, x1) on ``grid.hshape``.
    Velocity components u1, u2, u3 are stacked into u."""
    c = grid.coords()
    out = {}
    for key, fn in fns.items():
        if key == "b1":
            val, shape = fn(float(tval), grid.x1), grid.hshape
        else:
            val, shape = fn(float(tval), c["x1"], c["x3"]), grid.shape
        out[key] = np.broadcast_to(np.asarray(val, dtype=float), shape).copy()
    if "u1" in out:
        out["u"] = np.stack([out.pop(k) for k in ("u1", "u2", "u3")])
    return out


class PrimCase:
    """Forced compressible run with a known closed-form solution.

    The exact fields are single-mode trigonometric polynomials with gentle
    time envelopes; the sources are the symbolic residuals of the
    continuous equations under the default P of the gas's p_inf (another P
    raises FieldError) and its transport laws.  ``exact`` and ``sources``
    expose the fields and residuals as vectorized callables of (t, x1, x3),
    keyed rho, u1, u2, u3, theta, a, B2.
    """

    eps = 0.5  # Mach number of the run

    def __init__(self, gas: thermo.GasParams | None = None,
                 ref: thermo.ReferenceState | None = None):
        self.gas = thermo.GasParams() if gas is None else gas
        self.ref = thermo.ReferenceState() if ref is None else ref
        P = self.gas.structure()
        if type(P) is not thermo.DefaultPStructure or P.p_inf != self.gas.p_inf:
            raise FieldError(f"the compressible sources assume the default "
                             f"structural function P, got {P!r}")
        self.exact, self.sources = self._build()

    def _build(self):
        t, x1, x3 = _T, _X1, _X3
        gas, ref = self.gas, self.ref
        eps = sp.Float(self.eps)
        rb, tb, bb = sp.Float(ref.rho_bar), sp.Float(ref.theta_bar), sp.Float(ref.b_bar)
        c1, s1 = sp.cos(sp.pi * x1), sp.sin(sp.pi * x1)
        c3, s3 = sp.cos(sp.pi * x3), sp.sin(sp.pi * x3)

        rho = rb * (1 + sp.Float(0.08) * sp.cos(2 * t) * c1 * c3)
        # sin^2 vertical profile: zero value at the walls for the Dirichlet
        # rows and zero slope so that zeta(theta) is wall-flat (see module
        # docstring)
        theta = tb * (1 + sp.Float(0.08) * (1 + sp.sin(2 * t) / 2)
                      * s3 ** 2 * (1 + c1 / 2))
        u1 = sp.Float(0.08) * (1 + sp.sin(3 * t) / 2) * c1 * c3
        u2 = sp.Float(0.06) * sp.cos(2 * t) * c1 * c3
        u3 = sp.Float(0.08) * (1 + sp.cos(2 * t) / 2) * s1 * s3
        a_fl = sp.Float(0.04) * (1 + sp.sin(t) / 2) * c1 * c3
        B2 = sp.Float(0.05) * (1 + sp.cos(t) / 2) * c1 * s3
        G = sp.Rational(1, 2) - x3

        u_vec = (u1, u2, u3)
        B = (-sp.diff(a_fl, x3), B2, bb + sp.diff(a_fl, x1))
        J = (-sp.diff(B[1], x3),
             sp.diff(B[0], x3) - sp.diff(B[2], x1),
             sp.diff(B[1], x1))

        # closed-form gas laws differentiated at symbol level, then
        # evaluated on the exact fields
        rr, th = sp.symbols("rr th", positive=True)
        p_sym = rr * th + sp.Float(gas.p_inf) * rr ** sp.Rational(5, 3) \
            + sp.Float(gas.a) / 3 * th ** 4
        e_sym = (sp.Rational(3, 2) * (rr * th
                                      + sp.Float(gas.p_inf) * rr ** sp.Rational(5, 3))
                 + sp.Float(gas.a) * th ** 4) / rr
        sub = {rr: rho, th: theta}
        p = p_sym.subs(sub)
        dpdt = sp.diff(p_sym, th).subs(sub)
        dedt = sp.diff(e_sym, th).subs(sub)
        mu = sp.Float(gas.mu_low) * (1 + theta)
        kap = sp.Float(gas.kappa_low) * (1 + theta ** sp.Float(gas.beta))
        zet = sp.Float(gas.zeta_low) * (1 + theta)

        grad = [[sp.diff(uj, x1) for uj in u_vec],
                [sp.Integer(0)] * 3,
                [sp.diff(uj, x3) for uj in u_vec]]
        divu = grad[0][0] + grad[2][2]
        stress = [[mu * (grad[i][j] + grad[j][i])
                   - (sp.Rational(2, 3) * mu * divu if i == j else 0)
                   for j in range(3)] for i in range(3)]

        def cross(v, w):
            return (v[1] * w[2] - v[2] * w[1],
                    v[2] * w[0] - v[0] * w[2],
                    v[0] * w[1] - v[1] * w[0])

        lorentz = cross(J, B)
        grad_p = (sp.diff(p, x1), sp.Integer(0), sp.diff(p, x3))
        grad_G = (sp.diff(G, x1), sp.Integer(0), sp.diff(G, x3))

        src_rho = sp.diff(rho, t) + sp.diff(rho * u1, x1) + sp.diff(rho * u3, x3)

        src_u = []
        for j in range(3):
            div_s = sp.diff(stress[0][j], x1) + sp.diff(stress[2][j], x3)
            rhs = (div_s - grad_p[j] / eps ** 2 + rho * grad_G[j] / eps
                   + lorentz[j] / eps ** 2) / rho
            adv = u1 * grad[0][j] + u3 * grad[2][j]
            src_u.append(sp.diff(u_vec[j], t) + adv - rhs)

        phi = sp.Rational(1, 2) * mu * sum(
            (grad[i][j] + grad[j][i]
             - (sp.Rational(2, 3) * divu if i == j else 0)) ** 2
            for i in range(3) for j in range(3))
        joule = zet * (J[0] ** 2 + J[1] ** 2 + J[2] ** 2)
        heat = sp.diff(kap * sp.diff(theta, x1), x1) \
            + sp.diff(kap * sp.diff(theta, x3), x3)
        rhs_th = (-theta * dpdt * divu + eps ** 2 * phi + heat + joule) / (rho * dedt)
        src_th = sp.diff(theta, t) + u1 * sp.diff(theta, x1) \
            + u3 * sp.diff(theta, x3) - rhs_th

        uxB = cross(u_vec, B)
        E = tuple(zet * J[i] - uxB[i] for i in range(3))
        src_a = sp.diff(a_fl, t) + E[1]
        src_B2 = sp.diff(B2, t) - sp.diff(E[2], x1) + sp.diff(E[0], x3)

        exact = {"rho": rho, "u1": u1, "u2": u2, "u3": u3,
                 "theta": theta, "a": a_fl, "B2": B2}
        sources = {"rho": src_rho, "u1": src_u[0], "u2": src_u[1],
                   "u3": src_u[2], "theta": src_th, "a": src_a, "B2": src_B2}

        def lam(expr):
            return sp.lambdify((t, x1, x3), expr, modules="numpy")

        return ({k: lam(v) for k, v in exact.items()},
                {k: lam(v) for k, v in sources.items()})

    def fields(self, tval: float, grid: Grid) -> dict:
        """Exact fields on the grid at time tval (plus the constant c3)."""
        if grid.geometry is not Geometry.STRIP2:
            raise FieldError("the compressible case runs on the 2.5D strip")
        return {**_evaluate(self.exact, tval, grid), "c3": self.ref.b_bar}

    def state(self, tval: float, grid: Grid) -> PrimitiveState:
        f = self.fields(tval, grid)
        return PrimitiveState(grid, rho=f["rho"], u=f["u"], theta=f["theta"],
                              a=f["a"], c3=f["c3"], B2=f["B2"],
                              eps=self.eps, t=float(tval))

    def config(self, grid: Grid) -> PrimConfig:
        return PrimConfig(grid, self.gas, self.ref, default_potential(grid),
                          (0.0, 0.0))

    def source(self, grid: Grid):
        """Additive source hook ``src(t)`` for step_prim / run_prim.  It keeps
        its last (t, fields) pair, as a step's last stage and the next step's
        first ask for the same t; the solvers only read the fields."""
        return lru_cache(maxsize=1)(partial(_evaluate, self.sources, grid=grid))

    def error(self, state: PrimitiveState) -> dict:
        """Per-field L2 errors against the exact fields at state.t."""
        f = self.fields(state.t, state.grid)
        g = state.grid
        out = {"rho": l2_arr(state.rho - f["rho"], g),
               "u": l2_arr(state.u - f["u"], g),
               "theta": l2_arr(state.theta - f["theta"], g),
               "a": l2_arr(state.a - f["a"], g),
               "B2": l2_arr(state.B2 - f["B2"], g)}
        out["combined"] = float(np.sqrt(sum(v ** 2 for v in out.values())))
        return out


class ObmCase:
    """Forced limit-system run with a known closed-form solution.

    On the 2.5D strip the limit velocity is pinned to zero, so the case
    exercises the heat/induction pair: vertical conduction with Dirichlet
    walls, horizontal induction diffusion, the magnetic coupling through
    lap_h(b_bar b1), and the non-local mean drift, whose continuous
    counterpart (the domain mean of the Laplacian) is integrated
    symbolically.  ``exact["theta1"]`` and ``sources["theta1"]`` are
    callables of (t, x1, x3); the b1 entries are callables of (t, x1).
    """

    def __init__(self, gas: thermo.GasParams | None = None,
                 ref: thermo.ReferenceState | None = None):
        self.gas = thermo.GasParams() if gas is None else gas
        self.ref = thermo.ReferenceState() if ref is None else ref
        self.exact, self.sources = self._build()

    def _build(self):
        t, x1, x3 = _T, _X1, _X3
        gas, ref = self.gas, self.ref
        rb, tb = ref.rho_bar, ref.theta_bar
        alpha, cp = thermo.alpha_cp(ref, gas)
        kap = float(thermo.kappa(tb, gas))
        zet = float(thermo.zeta(tb, gas))
        dpdt = float(thermo.dp_dtheta(rb, tb, gas))
        dedt = float(thermo.de_dtheta(rb, tb, gas))

        theta1 = sp.Float(0.1) * (1 + sp.sin(2 * t) / 2) * sp.sin(sp.pi * x3) \
            * (1 + sp.cos(sp.pi * x1) / 2)
        b1 = sp.Float(0.05) * (1 + sp.cos(3 * t) / 2) * sp.cos(sp.pi * x1)
        head = sp.Float(ref.b_bar) * b1

        lap_th = sp.diff(theta1, x1, 2) + sp.diff(theta1, x3, 2)
        # non-local term: the domain mean of the Laplacian, in closed form
        mean_lap = sp.integrate(sp.integrate(lap_th, (x1, -1, 1)),
                                (x3, 0, 1)) / 2
        drift = kap * mean_lap / (rb * dedt)
        rhs = (kap * lap_th - tb * alpha * zet * sp.diff(head, x1, 2)
               + tb * alpha * dpdt * drift) / (rb * cp)
        src_th = sp.diff(theta1, t) - rhs
        src_b = sp.diff(b1, t) - zet * sp.diff(b1, x1, 2)

        return ({"theta1": sp.lambdify((t, x1, x3), theta1, modules="numpy"),
                 "b1": sp.lambdify((t, x1), b1, modules="numpy")},
                {"theta1": sp.lambdify((t, x1, x3), src_th, modules="numpy"),
                 "b1": sp.lambdify((t, x1), src_b, modules="numpy")})

    def fields(self, tval: float, grid: Grid) -> dict:
        if grid.geometry is not Geometry.STRIP2:
            raise FieldError("the limit case runs on the 2.5D strip")
        return _evaluate(self.exact, tval, grid)

    def state(self, tval: float, grid: Grid) -> ObmState:
        f = self.fields(tval, grid)
        return ObmState.create(grid, f["theta1"], f["b1"], gas=self.gas,
                               ref=self.ref, t=float(tval))

    def config(self, grid: Grid, dt: float, t_end: float) -> ObmConfig:
        return ObmConfig(grid, self.gas, self.ref, default_potential(grid),
                         (0.0, 0.0), dt, t_end)

    def source(self, grid: Grid):
        """Additive source hook ``src(t)`` for step_obm / run_obm, which keeps
        its last (t, fields) pair as :meth:`PrimCase.source` does."""
        return lru_cache(maxsize=1)(partial(_evaluate, self.sources, grid=grid))

    def error(self, state: ObmState) -> dict:
        f = self.fields(state.t, state.grid)
        out = {"theta1": l2_arr(state.theta1 - f["theta1"], state.grid),
               "b1": l2_arr(state.b1 - f["b1"], state.grid)}
        out["combined"] = float(np.sqrt(sum(v ** 2 for v in out.values())))
        return out


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

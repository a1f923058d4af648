"""The manufactured solutions derived symbolically, as a test oracle for the
closed forms of :class:`obmlab.mms.PrimCase` and :class:`obmlab.mms.ObmCase`.

The exact fields are pushed through the continuous equations with sympy and
the residuals lambdified, so this route shares no algebra with the numpy
closed forms.  Each builder returns ``(exact, sources)``: dicts of callables
of (t, x1, x3), except the limit case's b1 entries, callables of (t, x1)."""

import sympy as sp

from obmlab import thermo

_T, _X1, _X3 = sp.symbols("t x1 x3", real=True)


def prim(gas: thermo.GasParams, ref: thermo.ReferenceState, eps: float):
    """The compressible case at Mach number eps (``PrimCase.eps``)."""
    t, x1, x3 = _T, _X1, _X3
    eps = sp.Float(eps)
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


def obm(gas: thermo.GasParams, ref: thermo.ReferenceState):
    """The limit case."""
    t, x1, x3 = _T, _X1, _X3
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

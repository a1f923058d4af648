"""The compressible right side in its physical-space form, as a test oracle
for the pseudo-spectral :func:`obmlab.mhd._tendencies`.

Every nonlinear flux is truncated by a full round trip through the 2/3 rule
and differentiated afterwards, each tendency is truncated again at the end,
the equation of state and transport are evaluated through the public
:mod:`obmlab.thermo` functions, and the strain, stress and dissipation are
the full 3x3 forms built from the (3, 3) velocity gradient."""

import numpy as np

from obmlab import thermo
from obmlab.fields import cross3, ddx1_arr, ddx3_arr, dealias_arr, mean_arr


def velocity_gradient(u, grid):
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


def strain(grad_u):
    """(div u, D) with D = grad u + grad u^T - (2/3) div u I."""
    divu = grad_u[0, 0] + grad_u[1, 1] + grad_u[2, 2]
    D = grad_u + grad_u.swapaxes(0, 1)
    for i in range(3):
        D[i, i] -= (2.0 / 3.0) * divu
    return divu, D


def stress(mu, eta, divu, D):
    """Newtonian stress mu D + eta div u I, built in the storage of D, which
    it consumes."""
    D *= mu
    for i in range(3):
        D[i, i] += eta * divu
    return D


def dissipation(mu, eta, divu, D):
    """S : grad u as the quadratic form (mu/2)|D|^2 + eta (div u)^2."""
    return 0.5 * mu * np.einsum("ij...,ij...->...", D, D) + eta * divu ** 2


def curl25(B, grid):
    """curl on the 2.5D strip (d2 = 0)."""
    return np.stack([
        -ddx3_arr(B[1], grid),
        ddx3_arr(B[0], grid) - ddx1_arr(B[2], grid),
        ddx1_arr(B[1], grid),
    ])


def tendencies(state, cfg):
    """Time derivatives of (rho, u, theta, a, B2)."""
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
    mu = np.asarray(thermo.mu(theta, gas))
    eta = np.zeros_like(mu)  # the model has no bulk viscosity
    divu, D = strain(grad_u)
    phi = dissipation(mu, eta, divu, D)  # before the stress takes over D

    # momentum: advection, stress, pressure, gravity, Lorentz
    adv = np.stack([dz(u[0] * grad_u[0, j] + u[2] * grad_u[2, j]) for j in range(3)])
    S = stress(mu, eta, divu, D)
    divS = np.stack([
        ddx1_arr(dz(S[0, j]), g) + ddx3_arr(dz(S[2, j]), g) for j in range(3)
    ])
    p = thermo.pressure(rho, theta, gas)
    grad_p = np.stack([ddx1_arr(dz(p), g), np.zeros(g.shape), ddx3_arr(p, g)])
    J = curl25(B, g)
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
    a_t[0] = (4.0 * a_t[1] - a_t[2]) / 3.0
    a_t[-1] = (4.0 * a_t[-2] - a_t[-3]) / 3.0
    B2_t = ddx1_arr(E[2], g) - ddx3_arr(E[0], g)

    return rho_t, np.stack([dz(c) for c in u_t]), dz(theta_t), a_t, B2_t

"""Entropy inversion for verification oracles that need the energy as a
function of the conservative variables (rho, S = rho s)."""

import numpy as np

from obmlab.thermo import ThermoDomainError, ds_dtheta, entropy


def theta_from_rho_S(rho, S, gas, tol: float = 1e-13, max_iter: int = 100):
    """Invert S = rho * s(rho, theta) for theta at fixed rho > 0 (Newton).

    The map theta -> rho*s is strictly increasing (ds_dtheta > 0), so the
    root is unique."""
    rho, S = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                 np.asarray(S, dtype=float))
    rho = rho.copy()
    S = S.copy()
    if np.any(rho <= 0):
        raise ThermoDomainError("rho must be > 0")
    # Bracket expansion first: rho*s is increasing in theta.
    lo = np.full_like(rho, 1e-8)
    hi = np.full_like(rho, 1.0)
    for _ in range(200):
        need = rho * entropy(rho, hi, gas) < S
        if not np.any(need):
            break
        hi = np.where(need, hi * 2.0, hi)
    for _ in range(200):
        need = rho * entropy(rho, lo, gas) > S
        if not np.any(need):
            break
        lo = np.where(need, lo * 0.5, lo)
    theta = np.sqrt(lo * hi)
    for _ in range(max_iter):
        f = rho * entropy(rho, theta, gas) - S
        new = theta - f / (rho * ds_dtheta(rho, theta, gas))
        # fall back to bisection when Newton leaves the bracket
        bad = (new <= lo) | (new >= hi) | ~np.isfinite(new)
        new = np.where(bad, 0.5 * (lo + hi), new)
        hi = np.where(f > 0, theta, hi)
        lo = np.where(f <= 0, theta, lo)
        done = np.abs(new - theta) <= tol * np.maximum(1.0, np.abs(new))
        theta = new
        if np.all(done):
            break
    return theta

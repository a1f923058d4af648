"""Output checks for the benchmark workloads.

Each check takes the outputs of one operation and returns a list of
problems; an empty list means the outputs are correct.  Reference values
are computed here with numpy and scipy from closed-form coefficients and
the documented file formats, not through obmlab's own operators.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np
from scipy.linalg import expm

# Reference-state coefficients of the default gas at rho_bar = theta_bar = 1:
# p = rho theta + rho^(5/3) and e = 3/2 (theta + rho^(2/3)) give
# p_theta = 1, e_theta = 3/2, alpha = 3/8, c_p = 15/8; the transport laws
# 0.05 (1 + theta^3) and 0.05 (1 + theta) give kappa = zeta = 0.1.
RHO_BAR = 1.0
THETA_BAR = 1.0
ALPHA = 3.0 / 8.0
CP = 15.0 / 8.0
E_THETA = 1.5
P_THETA = 1.0
KAPPA = 0.1
ZETA = 0.1

MHD_FIELDS = ("rho", "u1", "u2", "u3", "theta", "B1", "B2", "B3")
OBM_FIELDS = ("theta1", "b1")
DOMAIN_VOLUME = 2.0          # x1 in [-1, 1), x3 in [0, 1]

# Tolerances.  The limit solver is Crank-Nicolson in time; against exact
# time integration it agrees to about 2e-6 of the field's size at
# dt = 1e-3 (at most 1e-6 of the initial maximum for the mean temperature),
# so 1e-5 leaves a margin and nothing more.
LIMIT_REL_TOL = 1e-5
MASS_REL_TOL = 1e-12
DIVB_TOL = 1e-8
STUDY_DIVB_TOL = 1e-10
STUDY_MASS_TOL = 1e-12
MMS_ORDER_BAND = (1.8, 2.2)
MMS_FLOOR_RATIO = 1.25

_HEADER = struct.Struct("<4sIIIII")
_STRIP2 = 0


def read_snapshot(path) -> dict:
    """Parse a snapshot of the 2.5D strip; raises ValueError unless the
    file is whole: a full header and a whole number of named fields."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path.name}: truncated header")
    magic, version, geometry, n1, n2, n3 = _HEADER.unpack_from(raw)
    if magic != b"OBMQ" or version != 1 or geometry != _STRIP2 or n2 != 1:
        raise ValueError(f"{path.name}: not a version-1 strip snapshot")
    record = 8 + 8 * n1 * n3
    body = len(raw) - _HEADER.size
    if body == 0 or body % record:
        raise ValueError(f"{path.name}: {body} payload bytes is not a whole "
                         f"number of {record}-byte fields")
    fields = {}
    for offset in range(_HEADER.size, len(raw), record):
        name = raw[offset:offset + 8].decode("ascii").rstrip()
        fields[name] = np.frombuffer(raw, dtype="<f8", count=n1 * n3,
                                     offset=offset + 8).reshape(n3, n1)
    return fields


def read_csv(path) -> dict:
    """Columns of a CSV time series, by header name."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=float).reshape(len(body), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def _trapezoid_mean(column: np.ndarray) -> float:
    """Mean over x3 in [0, 1] of a profile on a uniform grid."""
    h = 1.0 / (column.size - 1)
    return float(h * (column.sum() - 0.5 * (column[0] + column[-1])))


def mean_temperature(profile: np.ndarray, t: float) -> np.ndarray:
    """The horizontal-mean temperature at time t, starting from ``profile``
    (uniform x3 grid, zero at both walls), under

        rho c_p dm/dt = kappa m'' + theta_bar alpha p_theta drift,
        drift = kappa (m'(1) - m'(0)) / (rho e_theta),

    the non-local mean-temperature problem of the limit system.  Second
    differences in x3, second-order one-sided wall slopes, exact
    integration in time."""
    n = profile.size
    h = 1.0 / (n - 1)
    m = n - 2
    lap = (np.diag(np.full(m, -2.0)) + np.diag(np.ones(m - 1), 1)
           + np.diag(np.ones(m - 1), -1)) / h ** 2
    flux = np.zeros(m)           # m'(1) - m'(0) with m = 0 on the walls
    flux[-1] -= 4.0 / (2.0 * h)
    flux[-2] += 1.0 / (2.0 * h)
    flux[0] -= 4.0 / (2.0 * h)
    flux[1] += 1.0 / (2.0 * h)
    gain = THETA_BAR * ALPHA * P_THETA * KAPPA / (RHO_BAR * E_THETA)
    op = (KAPPA * lap + gain * np.outer(np.ones(m), flux)) / (RHO_BAR * CP)
    inner = expm(op * t) @ profile[1:-1]
    return np.concatenate(([0.0], inner, [0.0]))


def decayed_b1(b1: np.ndarray, t: float) -> np.ndarray:
    """Exact solution of d b1/dt = zeta d^2 b1/dx1^2 on the period
    [-1, 1): each Fourier mode k = pi m decays as exp(-zeta k^2 t)."""
    k = np.pi * np.arange(b1.size // 2 + 1)
    spec = np.fft.rfft(b1) * np.exp(-ZETA * k ** 2 * t)
    return np.fft.irfft(spec, n=b1.size)


def _snapshots(outdir: Path, stem: str, count: int, names) -> tuple:
    """Read the count + 1 snapshots of one run; returns (fields, problems)."""
    problems = []
    paths = sorted(outdir.glob(f"{stem}_[0-9][0-9][0-9].snap"))
    if len(paths) != count + 1:
        problems.append(f"{len(paths)} {stem} snapshots, expected {count + 1}")
    snaps = []
    for path in paths:
        try:
            fields = read_snapshot(path)
        except ValueError as exc:
            problems.append(str(exc))
            continue
        if tuple(fields) != tuple(names):
            problems.append(f"{path.name}: fields {tuple(fields)}")
        elif not all(np.all(np.isfinite(v)) for v in fields.values()):
            problems.append(f"{path.name}: non-finite values")
        snaps.append(fields)
    return snaps, problems


def _landed(t: np.ndarray, t_end: float) -> list:
    if t.size == 0:
        return ["no time steps recorded"]
    if abs(t[-1] - t_end) > 1e-12 * t_end:
        return [f"last CSV time {t[-1]!r} is not t_end = {t_end!r}"]
    return []


def check_mhd(outdir: Path, prefix: str, t_end: float, snapshots: int) -> list:
    """run-mhd: lands on t_end, mass constant to rounding from the
    initial snapshot on, div B at rounding level, rho and theta positive,
    every snapshot whole."""
    col = read_csv(outdir / f"{prefix}_mhd.csv")
    problems = _landed(col["t"], t_end)
    snaps, bad = _snapshots(outdir, f"{prefix}_mhd", snapshots, MHD_FIELDS)
    problems += bad
    if col["t"].size and snaps:
        mass0 = DOMAIN_VOLUME * _trapezoid_mean(snaps[0]["rho"].mean(axis=1))
        drift = float(np.max(np.abs(col["mass"] - mass0))) / mass0
        if not drift <= MASS_REL_TOL:
            problems.append(f"mass drift {drift:.3e} > {MASS_REL_TOL:g}")
        divb = float(np.max(col["divB_max"]))
        if not divb < DIVB_TOL:
            problems.append(f"max |div B| {divb:.3e} >= {DIVB_TOL:g}")
        low = min(float(np.min(col["rho_min"])), float(np.min(col["theta_min"])),
                  *(float(np.min(s[k])) for s in snaps for k in ("rho", "theta")))
        if not low > 0.0:
            problems.append(f"rho or theta reached {low:.3e}")
    return problems


def check_obm(outdir: Path, prefix: str, t_end: float, snapshots: int) -> list:
    """run-obm: lands on t_end, whole snapshots; the final mean
    temperature matches the 1D non-local mean-temperature solve from the
    horizontal mean of snapshot 000, and the final b1 matches exact
    per-mode diffusive decay."""
    col = read_csv(outdir / f"{prefix}_obm.csv")
    problems = _landed(col["t"], t_end)
    snaps, bad = _snapshots(outdir, f"{prefix}_obm", snapshots, OBM_FIELDS)
    problems += bad
    if col["t"].size and len(snaps) == snapshots + 1:
        first, last = snaps[0], snaps[-1]
        start = first["theta1"].mean(axis=1)
        want = mean_temperature(start, t_end)
        scale = float(np.max(np.abs(start)))
        err = float(np.max(np.abs(last["theta1"].mean(axis=1) - want))) / scale
        if not err < LIMIT_REL_TOL:
            problems.append(f"final horizontal-mean theta1 vs 1D solve: "
                            f"error {err:.2e} of its initial maximum")
        got, mean = float(col["mean_theta1"][-1]), _trapezoid_mean(want)
        err = abs(got - mean) / scale
        if not err < LIMIT_REL_TOL:
            problems.append(f"final mean theta1 {got:.9e} vs 1D solve "
                            f"{mean:.9e}: error {err:.2e} of the initial maximum")
        b_want = decayed_b1(first["b1"][0], t_end)
        err = float(np.max(np.abs(last["b1"][0] - b_want))
                    / np.max(np.abs(b_want)))
        if not err < LIMIT_REL_TOL:
            problems.append(f"final b1 vs exact decay: rel err {err:.2e}")
    return problems


def check_study(report, eps_list) -> list:
    """Mach sweep: complete; sup_E strictly decreasing as eps falls; the
    fitted rate positive and equal to a refit of the recorded suprema; mass
    drift and div B at rounding level; entropy production nonnegative."""
    problems = []
    failed = [e.eps for e in report.entries if e.failed is not None]
    if failed or len(report.entries) != len(eps_list):
        return [f"study incomplete; failed at eps = {failed}"]
    sup = np.array([e.sup_E for e in report.entries])
    if not np.all(np.diff(sup) < 0.0):
        problems.append(f"sup_E not strictly decreasing: {sup.tolist()}")
    refit = float(np.polyfit(np.log(eps_list), np.log(sup), 1)[0])
    rate = report.rate
    if rate is None or not rate > 0.0 or abs(rate - refit) > 1e-9 * abs(refit):
        problems.append(f"rate {rate} is not the positive refit {refit:.6g}")
    for e in report.entries:
        mon = e.monitors
        if not mon["mass_drift"] <= STUDY_MASS_TOL * DOMAIN_VOLUME:
            problems.append(f"eps = {e.eps:g}: mass drift {mon['mass_drift']:.3e}")
        if not mon["divB_max"] <= STUDY_DIVB_TOL:
            problems.append(f"eps = {e.eps:g}: max |div B| {mon['divB_max']:.3e}")
        if not mon["entropy_prod_min"] >= 0.0:
            problems.append(f"eps = {e.eps:g}: entropy production "
                            f"{mon['entropy_prod_min']:.3e} < 0")
    return problems


def check_mms(tables: dict) -> list:
    """Manufactured solutions: vertical orders, recomputed from the error
    tables, lie in the band; horizontal sweeps sit on a flat floor."""
    problems = []
    for name, table in tables.items():
        err = np.asarray(table.combined, dtype=float)
        h = np.asarray(table.spacings, dtype=float)
        if err.size < 2 or not np.all(np.isfinite(err) & (err > 0.0)):
            problems.append(f"{name}: errors {err.tolist()}")
            continue
        if name.endswith("vertical"):
            orders = np.log(err[:-1] / err[1:]) / np.log(h[:-1] / h[1:])
            lo, hi = MMS_ORDER_BAND
            if not np.all((orders >= lo) & (orders <= hi)):
                problems.append(f"{name}: orders {orders.tolist()} outside "
                                f"[{lo}, {hi}]")
        elif not err.max() / err.min() < MMS_FLOOR_RATIO:
            problems.append(f"{name}: floor ratio {err.max() / err.min():.4f}")
    return problems

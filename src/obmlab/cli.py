"""Command-line front end: configuration, runs, studies, and reports.

Subcommands
-----------

``thermo-check``
    Run the thermodynamic consistency suite and print a pass/fail table.
``run-obm``
    March the limit solver from configured initial data; writes a CSV time
    series and evenly spaced snapshots.
``run-mhd``
    March the compressible solver from well-prepared data at the configured
    Mach number; writes a CSV time series, snapshots, and (on positivity
    loss) a snapshot of the last valid state.  Checks that the entropy
    production in the solver's rows, integral and pointwise, is nonnegative.
``converge``
    Side-by-side relative-energy study over a decreasing Mach sequence, its
    Mach numbers run in parallel worker processes where more than one CPU
    is usable; prints a line per Mach number in eps order as each finishes,
    writes a study CSV plus a text summary and reports the observed rate.
``mms``
    Manufactured-solution refinement sweeps for both solvers; prints the
    error tables and checks the observed vertical orders.

Every subcommand accepts ``--config <path>``, ``--out <dir>``,
``--seed <u64>`` (overrides ``[output] seed``), and ``--quiet``.  Exit
codes: 0 pass, 1 check failure, 2 usage or configuration error, 3 numerical
failure (NaN, lost positivity, or a violated CFL bound).

Configuration file
------------------

Plain ``key = value`` lines under bracketed section headers; ``#`` and ``;``
start comments.  Unknown sections or keys are errors, not warnings.  Every
key has a default, so an empty or absent file runs the bundled setup.
Integer keys but the seed, and the steps any dt needs to t_end, are at most
2**20; an automatic dt counts its steps at the CFL bound of the initial
state (at the smallest eps in a study), and a run whose automatic dt later
collapses past that count stops with exit 3.  A grid has at most 2**23
points, n1 * n3, so that one field takes at most 64 MiB.

[thermo]
    p_inf = 1.0            cold-pressure coefficient (> 0)
    a = 0.0                radiation constant (>= 0)
    s0 = 0.0               entropy additive constant
    mu_low = 0.05          shear viscosity lower envelope constant
    mu_high = 0.05         shear viscosity upper envelope constant
    kappa_low = 0.05       conductivity lower envelope constant
    kappa_high = 0.05      conductivity upper envelope constant
    beta = 3.0             conductivity temperature exponent (> 0)
    zeta_low = 0.05        magnetic diffusivity lower envelope constant
    zeta_high = 0.05       magnetic diffusivity upper envelope constant
    rho_bar = 1.0          background density (> 0)
    theta_bar = 1.0        background temperature (> 0)
    b_bar = 0.5            background vertical magnetic field
    n_points = 100         random sample states for thermo-check (>= 1)
    fd_step = 1e-5         finite-difference step for thermo-check (> 0)
    tamper = none          fault hook: none | entropy-constant | entropy-slope

[grid]
    n1 = 64                horizontal points (power of two, >= 4); the
                           2/3 rule must keep the highest mode of every
                           profile, so >= 8 for smooth and >= 16 for random
    n3 = 65                vertical points (>= 5)

[obm]
    dt = 1e-3              time step (> 0)
    t_end = 0.25           final time (>= 0)
    theta_amp = 0.1        amplitude of the initial temperature deviation
    b_amp = 0.25           amplitude of the initial magnetic perturbation
    profile = smooth       initial data family: smooth | random
    theta_b_bottom = 0.0   wall temperature deviation at x3 = 0
    theta_b_top = 0.0      wall temperature deviation at x3 = 1

[mhd]
    eps = 0.1              Mach/Alfven number of the run (> 0, eps**2 normal)
    dt = 0.0               time step; 0 selects safety * the bound each step
    t_end = 0.25           final time (>= 0)
    safety = 0.6           fraction of the stability bound used when dt = 0
    theta_amp = 0.1        as in [obm], for the well-prepared profiles
    b_amp = 0.25           as in [obm]
    profile = smooth       as in [obm]
    g_profile = linear     potential: linear (1/2 - x3) | zero
    theta_b_bottom = 0.0   as in [obm]
    theta_b_top = 0.0      as in [obm]

[study]
    eps_list = 0.2, 0.1, 0.05   strictly decreasing positive Mach numbers
    dt = 1e-3              limit-solver step within the study (> 0)
    t_end = 0.25           common final time (> 0)
    n_snap = 25            synchronization points per run (>= 1)
    theta_amp = 0.1        shared first-order temperature amplitude
    b_amp = 0.25           shared first-order magnetic amplitude
    profile = smooth       initial data family: smooth | random

[output]
    prefix = run           file-name prefix for CSV and snapshots
    snapshots = 25         snapshot count per run command (0 disables)
    seed = 0               seed for randomized profiles and check sampling

Outputs are CSV with a fixed header row, floats printed with %.17g so that
repeated runs with the same config and seed are byte-identical, and
snapshots in the binary layout documented in the field module.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .fields import FieldError, Geometry, Grid, mean_arr, write_snapshot
from .mhd import (CflError, PositivityError, PrimConfig, PrimitiveState, StepRow,
                  cfl_limits, run_prim, snapshot_fields)
from .obm import (_MAX_POINTS, _MAX_STEPS, ObmConfig, ObmRow, ObmState,
                  default_potential, initial_state, run_obm)
from .relent import convergence_study, well_prepared_data
from .thermo import (DefaultPStructure, GasParams, ReferenceState,
                     ThermoDomainError, thermo_check)

__all__ = [
    "ConfigError",
    "NumericalFailure",
    "RunConfig",
    "main",
]


class ConfigError(ValueError):
    """Raised for unusable configuration or command input; exit code 2."""


class NumericalFailure(RuntimeError):
    """Raised when a run loses positivity, violates CFL, or produces
    non-finite values; exit code 3."""


# defaults double as the type table: strings stay strings, ints stay ints,
# everything else is coerced to float
_DEFAULTS = {
    "thermo": {
        "p_inf": 1.0, "a": 0.0, "s0": 0.0,
        "mu_low": 0.05, "mu_high": 0.05,
        "kappa_low": 0.05, "kappa_high": 0.05, "beta": 3.0,
        "zeta_low": 0.05, "zeta_high": 0.05,
        "rho_bar": 1.0, "theta_bar": 1.0, "b_bar": 0.5,
        "n_points": 100, "fd_step": 1e-5, "tamper": "none",
    },
    "grid": {"n1": 64, "n3": 65},
    "obm": {
        "dt": 1e-3, "t_end": 0.25, "theta_amp": 0.1, "b_amp": 0.25,
        "profile": "smooth", "theta_b_bottom": 0.0, "theta_b_top": 0.0,
    },
    "mhd": {
        "eps": 0.1, "dt": 0.0, "t_end": 0.25, "safety": 0.6,
        "theta_amp": 0.1, "b_amp": 0.25,
        "profile": "smooth", "g_profile": "linear",
        "theta_b_bottom": 0.0, "theta_b_top": 0.0,
    },
    "study": {
        "eps_list": "0.2, 0.1, 0.05", "dt": 1e-3, "t_end": 0.25,
        "n_snap": 25, "theta_amp": 0.1, "b_amp": 0.25, "profile": "smooth",
    },
    "output": {"prefix": "run", "snapshots": 25, "seed": 0},
}

# smallest admissible eps * eps: the scaled energies divide by it
_TINY = np.finfo(float).tiny
# each initial data family and its highest horizontal mode m (wavenumber pi m)
_PROFILE_MODES = {"smooth": 2, "random": 3}
_G_PROFILES = ("linear", "zero")
_TAMPERS = ("none", "entropy-constant", "entropy-slope")

_OBM_HEADER = ObmRow._fields
_MHD_HEADER = StepRow._fields[:-1]  # the row but its pointwise entropy floor
_STUDY_HEADER = ("eps", "sup_E", "sup_E_ess", "sup_E_res",
                 "dev_rho", "dev_theta", "dev_u", "dev_B", "failed")
_MMS_HEADER = ("sweep", "n", "spacing", "error", "order")


@contextmanager
def _setup():
    """Map the errors of malformed solver input raised while building runs,
    ThermoDomainError and FieldError, to ConfigError."""
    try:
        yield
    except (ThermoDomainError, FieldError) as exc:
        raise ConfigError(str(exc)) from exc


@contextmanager
def _march():
    """Map failures raised while time stepping to NumericalFailure."""
    try:
        yield
    except (PositivityError, CflError) as exc:
        raise NumericalFailure(str(exc)) from exc
    except FieldError as exc:
        # state constructors reject NaN/inf, so this is a blown-up run
        raise NumericalFailure(f"invalid state during the run: {exc}") from exc


def _coerce(section: str, key: str, raw: str):
    default = _DEFAULTS[section][key]
    raw = raw.strip()
    if isinstance(default, str):
        return raw
    try:
        value = int(raw) if isinstance(default, int) else float(raw)
    except ValueError as exc:
        kind = "integer" if isinstance(default, int) else "number"
        raise ConfigError(f"[{section}] {key}: expected {kind}, got {raw!r}") from exc
    if isinstance(value, float):
        if not np.isfinite(value):
            raise ConfigError(f"[{section}] {key}: non-finite value {raw!r}")
    elif key != "seed" and value > _MAX_STEPS:  # _validate bounds the grid's memory
        raise ConfigError(f"[{section}] {key}: {value} exceeds {_MAX_STEPS}")
    return value


@dataclass
class RunConfig:
    """Typed, validated configuration for all subcommands.

    ``sections`` maps each section name to a plain dict of key -> value with
    the documented defaults filled in.  Loading constructs the gas model,
    reference state, and grid once so every numeric parameter is checked
    before any command runs.
    """

    sections: dict

    def __getitem__(self, name: str) -> dict:
        return self.sections[name]

    @classmethod
    def load(cls, path=None) -> "RunConfig":
        sections = {name: dict(keys) for name, keys in _DEFAULTS.items()}
        if path is not None:
            try:
                text = Path(path).read_text()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            parser = configparser.ConfigParser(
                interpolation=None, inline_comment_prefixes=("#", ";"))
            try:
                parser.read_string(text, source=str(path))
            except configparser.Error as exc:
                raise ConfigError(f"config parse error: {exc}") from exc
            if parser.defaults():
                raise ConfigError("keys outside a [section] header are not allowed")
            for sec in parser.sections():
                if sec not in sections:
                    known = ", ".join(sections)
                    raise ConfigError(f"unknown section [{sec}]; known sections: {known}")
                for key, raw in parser[sec].items():
                    if key not in sections[sec]:
                        known = ", ".join(sections[sec])
                        raise ConfigError(
                            f"unknown key {key!r} in [{sec}]; known keys: {known}")
                    sections[sec][key] = _coerce(sec, key, raw)
        cfg = cls(sections)
        cfg._validate()
        return cfg

    # -- constructors over the validated sections --------------------------

    def gas(self) -> GasParams:
        t = self.sections["thermo"]
        with _setup():
            return GasParams(
                p_inf=t["p_inf"], a=t["a"], s0=t["s0"],
                mu_low=t["mu_low"], mu_high=t["mu_high"],
                kappa_low=t["kappa_low"], kappa_high=t["kappa_high"], beta=t["beta"],
                zeta_low=t["zeta_low"], zeta_high=t["zeta_high"])

    def ref(self) -> ReferenceState:
        t = self.sections["thermo"]
        with _setup():
            return ReferenceState(rho_bar=t["rho_bar"], theta_bar=t["theta_bar"],
                                  b_bar=t["b_bar"])

    def make_grid(self) -> Grid:
        g = self.sections["grid"]
        with _setup():
            return Grid(Geometry.STRIP2, g["n1"], n3=g["n3"])

    def potential(self, grid: Grid, which: str) -> np.ndarray:
        if which == "linear":
            return default_potential(grid)
        return np.zeros(grid.shape)

    def wall_temps(self, section: str) -> tuple:
        s = self.sections[section]
        return (s["theta_b_bottom"], s["theta_b_top"])

    def eps_list(self) -> list:
        raw = self.sections["study"]["eps_list"]
        tokens = [tok for tok in re.split(r"[,\s]+", raw.strip()) if tok]
        try:
            values = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise ConfigError(f"[study] eps_list: bad entry in {raw!r}") from exc
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"[study] eps_list: non-finite entry in {raw!r}")
        return values

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        self.gas()
        self.ref()
        self.make_grid()
        n1, n3 = self.sections["grid"]["n1"], self.sections["grid"]["n3"]
        if n1 * n3 > _MAX_POINTS:
            raise ConfigError(f"[grid] n1 x n3 = {n1} x {n3} exceeds {_MAX_POINTS} points")
        t = self.sections["thermo"]
        if t["n_points"] < 1:
            raise ConfigError("[thermo] n_points must be >= 1")
        if not t["fd_step"] > 0:
            raise ConfigError("[thermo] fd_step must be positive")
        if t["tamper"] not in _TAMPERS:
            raise ConfigError(
                f"[thermo] tamper must be one of {', '.join(_TAMPERS)}")
        for sec in ("obm", "mhd"):
            if self.sections[sec]["t_end"] < 0:
                raise ConfigError(f"[{sec}] t_end must be nonnegative")
        o = self.sections["obm"]
        if not o["dt"] > 0:
            raise ConfigError("[obm] dt must be positive")
        m = self.sections["mhd"]
        if m["g_profile"] not in _G_PROFILES:
            raise ConfigError(f"[mhd] g_profile must be one of {', '.join(_G_PROFILES)}")
        if not m["eps"] > 0:
            raise ConfigError("[mhd] eps must be positive")
        if m["eps"] * m["eps"] < _TINY:
            raise ConfigError(f"[mhd] eps = {m['eps']:g} is too small: "
                              "its square underflows")
        if m["dt"] < 0:
            raise ConfigError("[mhd] dt must be nonnegative (0 = automatic)")
        if not 0 < m["safety"] <= 1:
            raise ConfigError("[mhd] safety must lie in (0, 1]")
        s = self.sections["study"]
        eps = self.eps_list()
        if not eps or any(e <= 0 for e in eps):
            raise ConfigError("[study] eps_list needs positive Mach numbers")
        if min(eps) * min(eps) < _TINY:
            raise ConfigError(f"[study] eps_list entry {min(eps):g} is too small: "
                              "its square underflows")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("[study] eps_list must be strictly decreasing")
        if not s["dt"] > 0:
            raise ConfigError("[study] dt must be positive")
        if not s["t_end"] > 0:
            raise ConfigError("[study] t_end must be positive")
        if s["n_snap"] < 1:
            raise ConfigError("[study] n_snap must be >= 1")
        for sec in ("obm", "mhd", "study"):
            profile, dt, t_end = (self.sections[sec][key]
                                  for key in ("profile", "dt", "t_end"))
            if profile not in _PROFILE_MODES:
                raise ConfigError(
                    f"[{sec}] profile must be one of {', '.join(_PROFILE_MODES)}")
            if n1 // 3 < _PROFILE_MODES[profile]:
                raise ConfigError(
                    f"[grid] n1 = {n1} keeps horizontal modes up to {n1 // 3} "
                    f"under the 2/3 rule, but [{sec}] profile = {profile} "
                    f"has modes up to {_PROFILE_MODES[profile]}")
            if dt > 0 and t_end / dt > _MAX_STEPS:  # [mhd] dt = 0 is automatic
                raise ConfigError(f"[{sec}] dt = {dt:g} needs more than "
                                  f"{_MAX_STEPS} steps to reach t_end = {t_end:g}")
        out = self.sections["output"]
        if out["snapshots"] < 0:
            raise ConfigError("[output] snapshots must be nonnegative")
        if not 0 <= out["seed"] < 2 ** 64:
            raise ConfigError("[output] seed must fit in an unsigned 64-bit value")
        prefix = out["prefix"]
        if not prefix or prefix != prefix.strip() or "/" in prefix or "\\" in prefix:
            raise ConfigError("[output] prefix must be a bare file-name stem")


def _check_automatic_steps(section: str, state: PrimitiveState, pcfg: PrimConfig,
                           t_end: float) -> None:
    """The step bound of the loader for a run whose dt is safety times the
    CFL bound, taken at the initial state (the bound can underflow to 0)."""
    if pcfg.safety * cfl_limits(state, pcfg) * _MAX_STEPS < t_end:
        raise ConfigError(
            f"[{section}] eps = {state.eps:g} needs more than {_MAX_STEPS} steps "
            f"of safety * CFL bound to reach t_end = {t_end:g}")


# -- initial data ---------------------------------------------------------------


def _rescaled(arr: np.ndarray, amp: float) -> np.ndarray:
    peak = float(np.max(np.abs(arr)))
    return (amp / peak) * arr if peak > 0 else np.zeros_like(arr)


def _random_modes(grid: Grid, theta_amp: float, b_amp: float, seed: int):
    """Seeded low-mode initial data, wall-compatible and mean-free.

    Temperature combines sin(pi k x3) verticals (k = 1, 2) with phased
    horizontal cosines (m = 0, 1, 2); the magnetic perturbation combines
    phased cosines m = 1, 2, 3, all of which average to zero over the
    period.  Each field is rescaled so its sup equals the requested
    amplitude."""
    rng = np.random.default_rng(seed)
    c = grid.coords()
    th = np.zeros(grid.shape)
    for k in (1, 2):
        for m in (0, 1, 2):
            amp = rng.uniform(-1.0, 1.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            th = th + amp * np.sin(np.pi * k * c["x3"]) \
                * np.cos(np.pi * m * c["x1"] + phase)
    b1 = np.zeros(grid.hshape)
    for m in (1, 2, 3):
        amp = rng.uniform(-1.0, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        b1 = b1 + amp * np.cos(np.pi * m * grid.x1 + phase)
    return _rescaled(th, theta_amp), _rescaled(b1, b_amp)


def _initial_profiles(ocfg: ObmConfig, section: dict, seed: int, walls: tuple):
    """First-order (theta1, b1) arrays for the configured data family.

    Both families vanish on the walls; a linear lift matching the wall
    temperature deviations is added afterward so the trace condition of the
    well-prepared construction holds for any wall values."""
    g = ocfg.grid
    if section["profile"] == "smooth":
        st = initial_state(ocfg, theta_amp=section["theta_amp"],
                           b_amp=section["b_amp"])
        th, b1 = st.theta1, st.b1
    else:
        th, b1 = _random_modes(g, section["theta_amp"], section["b_amp"], seed)
    x3 = g.coords()["x3"]
    lift = walls[0] * (1.0 - x3) + walls[1] * x3
    th = th + np.broadcast_to(lift, g.shape)
    return th, b1


# -- output ----------------------------------------------------------------------


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return "%.17g" % value


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


class _SnapshotSchedule:
    """Time-based snapshot cadence: count + 1 evenly spaced write times.

    Used as the per-step hook of both run drivers; also called once on the
    initial state so index 000 is the configured data."""

    def __init__(self, outdir: Path, stem: str, count: int, t_end: float,
                 fields_fn):
        self.outdir = Path(outdir)
        self.stem = stem
        self.fields_fn = fields_fn
        # a run to t_end = 0 has one write time, 0, and writes index 000 alone
        n = (count + 1 if t_end > 0 else 1) if count > 0 else 0
        self.targets = [t_end * k / count for k in range(n)]
        self.written = []

    def note(self, state) -> None:
        tol = 1e-9 * max(1.0, abs(state.t))
        while len(self.written) < len(self.targets) \
                and state.t >= self.targets[len(self.written)] - tol:
            path = self.outdir / f"{self.stem}_{len(self.written):03d}.snap"
            write_snapshot(path, state.grid, self.fields_fn(state))
            self.written.append(path)


def _obm_snapshot_fields(state: ObmState) -> dict:
    g = state.grid
    return {"theta1": state.theta1, "b1": np.broadcast_to(state.b1, g.shape)}


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _seed(cfg: RunConfig, args) -> int:
    return args.seed if args.seed is not None else cfg["output"]["seed"]


# -- subcommands -----------------------------------------------------------------


@dataclass(frozen=True)
class _SlopeTamperedP(DefaultPStructure):
    """The default P and S with the entropy slope S' scaled by 1.01."""

    def entropy_deriv(self, Z):
        return 1.01 * super().entropy_deriv(Z)


@dataclass(frozen=True)
class _SlopeTamperedGas(GasParams):
    """Gas whose entropy slope S' disagrees with S, P and P': the Gibbs
    checks must fail, while the constant-shift tamper (s0 only) passes."""

    def structure(self) -> _SlopeTamperedP:
        return _SlopeTamperedP(p_inf=self.p_inf, s0=self.s0)


def cmd_thermo_check(cfg: RunConfig, args) -> int:
    t = cfg["thermo"]
    gas = cfg.gas()
    if t["tamper"] == "entropy-constant":
        gas = replace(gas, s0=gas.s0 + 0.25)
    elif t["tamper"] == "entropy-slope":
        gas = _SlopeTamperedGas(**vars(gas))
    report = thermo_check(gas, cfg.ref(), seed=_seed(cfg, args),
                          n_points=t["n_points"], fd_step=t["fd_step"])
    for line in report.lines():
        _say(args, line)
    _say(args, f"thermo-check: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_run_obm(cfg: RunConfig, args) -> int:
    gas, ref = cfg.gas(), cfg.ref()
    grid = cfg.make_grid()
    o = cfg["obm"]
    walls = cfg.wall_temps("obm")
    with _setup():
        ocfg = ObmConfig(grid, gas, ref, default_potential(grid), walls,
                         dt=o["dt"], t_end=o["t_end"])
        th, b1 = _initial_profiles(ocfg, o, _seed(cfg, args), walls)
        state = ObmState.create(grid, th, b1, gas=gas, ref=ref)
    outdir = Path(args.out)
    prefix = cfg["output"]["prefix"]
    snaps = _SnapshotSchedule(outdir, f"{prefix}_obm", cfg["output"]["snapshots"],
                              o["t_end"], _obm_snapshot_fields)
    snaps.note(state)
    with _march():
        state, rows = run_obm(state, ocfg, on_step=snaps.note)
    csv_path = outdir / f"{prefix}_obm.csv"
    _write_csv(csv_path, _OBM_HEADER, rows)
    _say(args, f"run-obm: {len(rows)} steps to t = {state.t:g}, "
               f"mean theta1 = {mean_arr(state.theta1, grid):.6e}")
    _say(args, f"wrote {csv_path} and {len(snaps.written)} snapshots")
    return 0


def cmd_run_mhd(cfg: RunConfig, args) -> int:
    gas, ref = cfg.gas(), cfg.ref()
    grid = cfg.make_grid()
    m = cfg["mhd"]
    walls = cfg.wall_temps("mhd")
    G = cfg.potential(grid, m["g_profile"])
    with _setup():
        # dt/t_end of this helper config are never read by the data builder
        ocfg = ObmConfig(grid, gas, ref, G, walls, dt=1.0, t_end=0.0)
        prim0, limit, info = well_prepared_data(
            *_initial_profiles(ocfg, m, _seed(cfg, args), walls), ocfg, m["eps"])
        del limit  # the compressible run does not read it
        pcfg = PrimConfig(grid, gas, ref, G, walls, safety=m["safety"])
    if m["dt"] == 0:
        _check_automatic_steps("mhd", prim0, pcfg, m["t_end"])
    outdir = Path(args.out)
    prefix = cfg["output"]["prefix"]
    snaps = _SnapshotSchedule(outdir, f"{prefix}_mhd", cfg["output"]["snapshots"],
                              m["t_end"], snapshot_fields)
    snaps.note(prim0)
    start = [prim0]  # the march gets the only reference to the initial data
    del prim0
    with _march():
        try:
            state, rows = run_prim(start.pop(), pcfg, m["t_end"],
                                   dt=(m["dt"] if m["dt"] > 0 else None),
                                   on_step=snaps.note,
                                   entropy_fault=args.inject_entropy_fault)
        except PositivityError as exc:
            write_snapshot(outdir / f"{prefix}_mhd_fail.snap", grid,
                           snapshot_fields(exc.last_valid))
            raise
    csv_path = outdir / f"{prefix}_mhd.csv"
    _write_csv(csv_path, _MHD_HEADER, (row[:len(_MHD_HEADER)] for row in rows))
    _say(args, f"run-mhd: eps = {m['eps']:g}, {len(rows)} steps to "
               f"t = {state.t:g}")
    _say(args, f"well-prepared data: compat residual = "
               f"{info['compat_residual']:.3e}, initial relative energy = "
               f"{info['rel_energy0']:.3e}")
    _say(args, f"wrote {csv_path} and {len(snaps.written)} snapshots")
    # the sign check is pointwise per production term; a flipped viscous
    # term can hide inside the summed integral under Joule and conduction
    prod_min = min((row.entropy_production for row in rows), default=0.0)
    floor = min([0.0] + [row.entropy_floor for row in rows])
    ok = prod_min >= -1e-14 and floor >= -1e-14
    _say(args, f"entropy production: integral min = {prod_min:.6e}, "
               f"pointwise floor = {floor:.6e} ({'PASS' if ok else 'FAIL'})")
    return 0 if ok else 1


def cmd_converge(cfg: RunConfig, args) -> int:
    gas, ref = cfg.gas(), cfg.ref()
    grid = cfg.make_grid()
    s = cfg["study"]
    with _setup():
        ocfg = ObmConfig(grid, gas, ref, default_potential(grid), (0.0, 0.0),
                         dt=s["dt"], t_end=s["t_end"])
        th, b1 = _initial_profiles(ocfg, s, _seed(cfg, args), (0.0, 0.0))
        # the study's compressible runs take the most steps at the smallest eps
        eps_min = cfg.eps_list()[-1]
        _check_automatic_steps("study", well_prepared_data(th, b1, ocfg, eps_min)[0],
                               PrimConfig(grid, gas, ref, ocfg.G, ocfg.theta_B),
                               s["t_end"])

    def progress(entry):
        _say(args, f"converge: eps = {entry.eps:g}, sup_E = {entry.sup_E:.6e} "
                   + ("OK" if entry.failed is None else "FAILED"))

    report = convergence_study(th, b1, ocfg, cfg.eps_list(), n_snap=s["n_snap"],
                               on_entry=progress)
    rows = []
    for entry in report.entries:
        dev = entry.deviations
        rows.append((entry.eps, entry.sup_E, entry.sup_ess, entry.sup_res,
                     dev.get("rho", np.nan), dev.get("theta", np.nan),
                     dev.get("u", np.nan), dev.get("B", np.nan),
                     0 if entry.failed is None else 1))
    outdir = Path(args.out)
    prefix = cfg["output"]["prefix"]
    csv_path = outdir / f"{prefix}_study.csv"
    _write_csv(csv_path, _STUDY_HEADER, rows)

    lines = [f"{'eps':>8s} {'sup_E':>13s} {'sup_ess':>13s} {'sup_res':>13s} "
             f"{'dev_rho':>11s} {'dev_theta':>11s} {'dev_u':>11s} {'dev_B':>11s}"]
    for row in rows:
        lines.append(f"{row[0]:8.4g} {row[1]:13.6e} {row[2]:13.6e} "
                     f"{row[3]:13.6e} {row[4]:11.4e} {row[5]:11.4e} "
                     f"{row[6]:11.4e} {row[7]:11.4e}"
                     + ("  FAILED" if row[8] else ""))
    sup = report.sup_energies()
    decreasing = report.complete and bool(np.all(np.diff(sup) < 0))
    lines.append("rate (log sup_E vs log eps slope): "
                 + (f"{report.rate:.4f}" if report.rate is not None else "n/a"))
    lines.append(f"sup_E strictly decreasing: {'yes' if decreasing else 'no'}")
    summary_path = outdir / f"{prefix}_study.txt"
    summary_path.write_text("\n".join(lines) + "\n")
    for line in lines:
        _say(args, line)
    _say(args, f"wrote {csv_path} and {summary_path}")
    if not report.complete:
        failed = [e for e in report.entries if e.failed is not None]
        raise NumericalFailure(
            "; ".join(f"eps = {e.eps:g}: {e.failed}" for e in failed))
    return 0 if decreasing else 1


_MMS_BAND = (1.8, 2.2)


def _finest_level(sweep) -> tuple:
    """(grid, t_end) of the finest level of an MMS sweep function at its
    default levels: the largest n of the refined axis, the other fixed."""
    level = {k: p.default for k, p in inspect.signature(sweep).parameters.items()}
    n1 = max(level["n1_list"]) if "n1_list" in level else level["n1"]
    n3 = max(level["n3_list"]) if "n3_list" in level else level["n3"]
    return Grid(Geometry.STRIP2, n1, n3=n3), level["t_end"]


def cmd_mms(cfg: RunConfig, args) -> int:
    from . import mms  # the manufactured solutions; no other subcommand loads them
    gas, ref = cfg.gas(), cfg.ref()
    with _setup():
        prim_case = mms.PrimCase(gas=gas, ref=ref)
        obm_case = mms.ObmCase(gas=gas, ref=ref)
        for sweep in (mms.prim_vertical, mms.prim_horizontal):
            grid, t_end = _finest_level(sweep)
            _check_automatic_steps("thermo", prim_case.state(0.0, grid),
                                   prim_case.config(grid), t_end)
    with _march():
        sweeps = (
            ("prim-vertical", mms.prim_vertical(prim_case)),
            ("prim-horizontal", mms.prim_horizontal(prim_case)),
            ("obm-vertical", mms.obm_vertical(obm_case)),
            ("obm-horizontal", mms.obm_horizontal(obm_case)),
        )
    rows = []
    ok = True
    for name, table in sweeps:
        _say(args, f"{name}  ({table.axis} refinement)")
        _say(args, f"  {'n':>5s}  {'h':>13s}  {'error':>13s}  order")
        orders = [np.nan] + list(table.orders)
        for i, n in enumerate(table.ns):
            order_txt = "    -" if i == 0 else f"{orders[i]:5.3f}"
            _say(args, f"  {n:5d}  {table.spacings[i]:13.6e}  "
                       f"{table.combined[i]:13.6e}  {order_txt}")
            rows.append((name, n, float(table.spacings[i]),
                         float(table.combined[i]), float(orders[i])))
        if name.endswith("vertical"):
            in_band = bool(np.all((table.orders > _MMS_BAND[0])
                                  & (table.orders < _MMS_BAND[1])))
            ok = ok and in_band
            _say(args, f"  orders within [{_MMS_BAND[0]}, {_MMS_BAND[1]}]: "
                       f"{'yes' if in_band else 'no'}")
        else:
            _say(args, f"  floor ratio max/min = {table.floor_ratio:.6f}")
    outdir = Path(args.out)
    csv_path = outdir / f"{cfg['output']['prefix']}_mms.csv"
    _write_csv(csv_path, _MMS_HEADER, rows)
    _say(args, f"wrote {csv_path}")
    _say(args, f"mms: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# -- entry point -----------------------------------------------------------------


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit value")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None,
                        help="key = value configuration file")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="directory for CSV and snapshot output")
    common.add_argument("--seed", metavar="N", type=_u64, default=None,
                        help="override [output] seed")
    common.add_argument("--quiet", action="store_true",
                        help="suppress stdout reporting")
    parser = argparse.ArgumentParser(
        prog="obmlab",
        description="Drivers and checks for the low-Mach magnetoconvection "
                    "solvers: thermodynamic consistency, single runs, the "
                    "relative-energy study, and manufactured-solution sweeps.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    sub.add_parser("thermo-check", parents=[common],
                   help="run the thermodynamic consistency suite") \
       .set_defaults(func=cmd_thermo_check)
    sub.add_parser("run-obm", parents=[common],
                   help="march the limit solver, writing CSV and snapshots") \
       .set_defaults(func=cmd_run_obm)
    mhd_parser = sub.add_parser(
        "run-mhd", parents=[common],
        help="march the compressible solver from well-prepared data")
    mhd_parser.add_argument("--inject-entropy-fault", action="store_true",
                            help="flip the viscous production term so the "
                                 "entropy check must fail")
    mhd_parser.set_defaults(func=cmd_run_mhd)
    sub.add_parser("converge", parents=[common],
                   help="relative-energy study over decreasing Mach numbers") \
       .set_defaults(func=cmd_converge)
    sub.add_parser("mms", parents=[common],
                   help="manufactured-solution refinement sweeps") \
       .set_defaults(func=cmd_mms)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = RunConfig.load(args.config)
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(f"obmlab: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"obmlab: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"obmlab: config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"obmlab: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

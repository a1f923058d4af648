"""The benchmark workloads: inputs made from a seed, one operation each,
and the check of its outputs.

A workload function takes (seed, workdir, clock) and returns the outputs
that its check reads.  It calls ``clock.set_up_done()`` right before the
first time step, so everything before that is set-up and everything after
is the operation's wall time.  obmlab is imported by the caller before any
of this runs; functions are looked up on their modules at call time, so a
tracer installed beforehand sees the calls.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

import checks

# criterion-7 study on a shorter horizon: three Mach numbers on 64x65
STUDY_EPS = (0.2, 0.1, 0.05)
STUDY_GRID = (64, 65)
STUDY_DT = 1e-3
STUDY_T_END = 0.01
STUDY_SYNC = 2

PREFIX = "bench"
SNAPSHOTS = 4
MHD_T_END = 5e-4
OBM_DT = 1e-3
OBM_T_END = 0.1

MHD_CONFIG = f"""\
[grid]
n1 = 256
n3 = 257

[mhd]
eps = 0.1
t_end = {MHD_T_END!r}
profile = random

[output]
prefix = {PREFIX}
snapshots = {SNAPSHOTS}
"""

OBM_CONFIG = f"""\
[grid]
n1 = 256
n3 = 257

[obm]
dt = {OBM_DT!r}
t_end = {OBM_T_END!r}
profile = random

[output]
prefix = {PREFIX}
snapshots = {SNAPSHOTS}
"""

# shortened refinement lists, two or three levels per sweep
MMS_SWEEPS = (
    ("prim-vertical", "prim_vertical", dict(n3_list=(17, 33, 65), n1=16, t_end=0.02)),
    ("prim-horizontal", "prim_horizontal", dict(n1_list=(16, 32), n3=33, t_end=0.02)),
    ("obm-vertical", "obm_vertical", dict(n3_list=(17, 33, 65), n1=16, t_end=0.125)),
    ("obm-horizontal", "obm_horizontal", dict(n1_list=(16, 32), n3=65, t_end=0.125)),
)


class Clock:
    """Marks the end of set-up: the start of the first time step."""

    def __init__(self):
        self.set_up_end = None

    def set_up_done(self) -> None:
        if self.set_up_end is None:
            self.set_up_end = time.perf_counter()


def _default_gas():
    from obmlab import thermo
    return (thermo.GasParams(p_inf=1.0, a=0.0),
            thermo.ReferenceState(rho_bar=1.0, theta_bar=1.0, b_bar=0.5))


def study_profiles(grid, seed: int):
    """The criterion-7 profiles translated by a seeded whole number of
    cells; the strip is periodic in x1, so every seed poses the same
    physical problem on different grid values."""
    c = grid.coords()
    theta1 = 0.1 * np.sin(np.pi * c["x3"]) * (1.0 + 0.5 * np.cos(np.pi * c["x1"]))
    theta1 = np.broadcast_to(theta1, grid.shape)
    b1 = 0.25 * np.cos(np.pi * grid.x1)
    shift = seed % grid.n1
    return np.roll(theta1, shift, axis=1), np.roll(b1, shift)


def mach_sweep(seed: int, workdir: Path, clock: Clock):
    from obmlab import obm, relent
    from obmlab.fields import Geometry, Grid
    gas, ref = _default_gas()
    grid = Grid(Geometry.STRIP2, STUDY_GRID[0], n3=STUDY_GRID[1])
    cfg = obm.ObmConfig(grid, gas, ref, obm.default_potential(grid), (0.0, 0.0),
                        dt=STUDY_DT, t_end=STUDY_T_END)
    theta1, b1 = study_profiles(grid, seed)
    clock.set_up_done()
    return relent.convergence_study(theta1, b1, cfg, STUDY_EPS, n_snap=STUDY_SYNC)


def _cli_run(command: str, config: str, seed: int, workdir: Path, clock: Clock,
             solver: str):
    """``obmlab <command>`` through cli.main; set-up ends when the CLI
    first calls its time-stepping loop.  A non-zero exit fails the operation."""
    from obmlab import cli
    path = workdir / "bench.cfg"
    path.write_text(config)
    drive = getattr(cli, solver)

    def first_step(*args, **kwargs):
        clock.set_up_done()
        return drive(*args, **kwargs)

    setattr(cli, solver, first_step)
    try:
        code = cli.main([command, "--config", str(path), "--out", str(workdir),
                         "--seed", str(seed), "--quiet"])
    finally:
        setattr(cli, solver, drive)
    if code != 0:
        raise RuntimeError(f"obmlab {command} exited with code {code}")
    return workdir


def mhd_256(seed: int, workdir: Path, clock: Clock):
    return _cli_run("run-mhd", MHD_CONFIG, seed, workdir, clock, "run_prim")


def obm_256(seed: int, workdir: Path, clock: Clock):
    return _cli_run("run-obm", OBM_CONFIG, seed, workdir, clock, "run_obm")


def mms_sweeps(seed: int, workdir: Path, clock: Clock):
    """The manufactured solutions are closed-form and take no seed."""
    from obmlab import mms
    gas, ref = _default_gas()
    prim_case = mms.PrimCase(gas=gas, ref=ref)
    obm_case = mms.ObmCase(gas=gas, ref=ref)
    clock.set_up_done()
    tables = {}
    for name, function, kwargs in MMS_SWEEPS:
        case = prim_case if name.startswith("prim") else obm_case
        tables[name] = getattr(mms, function)(case, **kwargs)
    return tables


# name -> (operation, check of its outputs)
WORKLOADS = {
    "mach-sweep": (mach_sweep,
                   lambda report: checks.check_study(report, STUDY_EPS)),
    "mhd-256": (mhd_256,
                lambda out: checks.check_mhd(out, PREFIX, MHD_T_END, SNAPSHOTS)),
    "obm-256": (obm_256,
                lambda out: checks.check_obm(out, PREFIX, OBM_T_END, SNAPSHOTS)),
    "mms": (mms_sweeps, checks.check_mms),
}

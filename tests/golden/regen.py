"""Write the golden records that ``tests/test_golden.py`` compares against.

Run from the repository root, and only when a change of numerical method
is meant to move the recorded numbers:

    PYTHONPATH=src python tests/golden/regen.py [record ...]

Without arguments every record is rewritten; name record files (e.g.
``convergence_study_32x33.json``) to write only those.  Before it writes a
record, it prints each column's largest change against the file on disk,
relative to the column's largest recorded magnitude: the figure that a
change which moves a record states.  The test never writes a record."""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
PRIM_RECORD = HERE / "run_prim_random_32x33.json"
OBM_RECORD = HERE / "run_obm_random_32x33.json"
THERMO_RECORD = HERE / "thermo_check_stdout.json"
MMS_RECORD = HERE / "mms_vertical_combined.json"
STUDY_RECORD = HERE / "convergence_study_32x33.json"
SEED = 7
T_END = 0.006  # 7 steps of the automatic dt at eps = 0.1
TAMPERS = ("none", "entropy-constant", "entropy-slope")


def compressible_run():
    """The ``run-mhd`` set-up at its defaults but a 32x33 grid, the random
    data family with seed 7 and t_end = 0.006: automatic dt at the default
    safety, eps = 0.1.
    Returns the run's :class:`obmlab.mhd.StepRow` records."""
    from obmlab import cli
    from obmlab.mhd import PrimConfig, run_prim
    from obmlab.obm import ObmConfig
    from obmlab.relent import well_prepared_data

    cfg = cli.RunConfig.load(None)
    cfg["grid"].update(n1=32, n3=33)
    m = cfg["mhd"]
    m.update(profile="random", t_end=T_END)
    gas, ref, grid = cfg.gas(), cfg.ref(), cfg.make_grid()
    walls = cfg.wall_temps("mhd")
    G = cfg.potential(grid, m["g_profile"])
    ocfg = ObmConfig(grid, gas, ref, G, walls, dt=1.0, t_end=0.0)
    theta1, b1 = cli._initial_profiles(ocfg, m, SEED, walls)
    prim0, _, _ = well_prepared_data(theta1, b1, ocfg, m["eps"])
    # the default safety, which the command-line default repeats
    return run_prim(prim0, PrimConfig(grid, gas, ref, G, walls), m["t_end"])[1]


def prim_columns() -> dict:
    """Every :class:`obmlab.mhd.StepRow` column of :func:`compressible_run`."""
    rows = compressible_run()
    return {name: [float(getattr(r, name)) for r in rows] for name in rows[0]._fields}


def obm_columns() -> dict:
    """The six CSV columns of ``run-obm`` at its defaults but a 32x33 grid
    and the random data family with seed 7, without snapshots: dt = 1e-3 to
    t_end = 0.25, 250 steps."""
    from obmlab import cli

    cfg = cli.RunConfig.load(None)
    cfg["grid"].update(n1=32, n3=33)
    cfg["obm"]["profile"] = "random"
    cfg["output"]["snapshots"] = 0
    with tempfile.TemporaryDirectory() as out:
        cli.cmd_run_obm(cfg, argparse.Namespace(out=out, seed=SEED, quiet=True))
        lines = (Path(out) / "run_obm.csv").read_text().splitlines()
    return {col[0]: [float(v) for v in col[1:]]
            for col in zip(*(line.split(",") for line in lines))}


def thermo_check_stdout() -> dict:
    """What ``thermo-check`` at its defaults prints, for each tamper."""
    from obmlab import cli

    cfg = cli.RunConfig.load(None)
    printed = {}
    for tamper in TAMPERS:
        cfg["thermo"]["tamper"] = tamper
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli.cmd_thermo_check(cfg, argparse.Namespace(seed=None, quiet=False))
        printed[tamper] = out.getvalue()
    return printed


def mms_columns() -> dict:
    """The ``combined`` errors of one short vertical MMS sweep per solver,
    at the default gas and reference state and the benchmark's ``mms``
    levels: n1 = 16 and n3 = 17, 33, 65 for each, to t_end = 0.02
    (compressible) and 0.125 (limit)."""
    from obmlab import cli, mms

    cfg = cli.RunConfig.load(None)
    gas, ref = cfg.gas(), cfg.ref()
    prim = mms.prim_vertical(mms.PrimCase(gas=gas, ref=ref), (17, 33, 65), 16, 0.02)
    obm = mms.obm_vertical(mms.ObmCase(gas=gas, ref=ref), (17, 33, 65), 16, 0.125)
    return {"prim_vertical": [float(e) for e in prim.combined],
            "obm_vertical": [float(e) for e in obm.combined]}


def study_entries() -> list:
    """The criterion-7 study (its gas, reference state and profiles) at two
    Mach numbers, 0.2 and 0.1, on a 32x33 grid: dt = 1e-3 to t_end = 0.05
    with n_snap = 5.  Returns, per entry, eps, the E_total samples at the
    six synchronizations, the four deviations and the five monitors."""
    from obmlab import thermo
    from obmlab.fields import Geometry, Grid
    from obmlab.obm import ObmConfig, default_potential
    from obmlab.relent import convergence_study

    g = Grid(Geometry.STRIP2, 32, n3=33)
    gas = thermo.GasParams(p_inf=1.0, a=0.0)
    ref = thermo.ReferenceState(rho_bar=1.0, theta_bar=1.0, b_bar=0.5)
    cfg = ObmConfig(g, gas, ref, default_potential(g), (0.0, 0.0),
                    dt=1e-3, t_end=0.05)
    c = g.coords()
    theta1 = 0.1 * np.sin(np.pi * c["x3"]) * (1.0 + 0.5 * np.cos(np.pi * c["x1"]))
    theta1 = np.broadcast_to(theta1, g.shape).copy()
    b1 = 0.25 * np.cos(np.pi * g.x1)
    report = convergence_study(theta1, b1, cfg, (0.2, 0.1), n_snap=5)
    return [{"eps": e.eps,
             "failed": e.failed,
             "E_total": [float(v) for v in e.report.E_total],
             "deviations": {k: float(v) for k, v in e.deviations.items()},
             "monitors": {k: float(v) for k, v in e.monitors.items()}}
            for e in report.entries]


def columns_record(columns: dict) -> dict:
    return {
        "numpy": np.__version__,
        "steps": len(next(iter(columns.values()))),
        "columns": columns,
    }


def record_columns(record, path=()) -> dict:
    """The columns of a record by dotted path: each number, text or list of
    numbers, found through its dicts and lists of dicts."""
    if isinstance(record, list) and any(isinstance(v, (dict, list)) for v in record):
        record = {str(i): v for i, v in enumerate(record)}
    if not isinstance(record, dict):
        return {".".join(path): record}
    return {name: column for key, value in record.items()
            for name, column in record_columns(value, path + (key,)).items()}


def is_numeric(column) -> bool:
    values = column if isinstance(column, list) else [column]
    return all(isinstance(v, (int, float)) for v in values)


def largest_changes(old: dict, new: dict) -> list:
    """One line per column of ``new``: its largest change against ``old``,
    relative to the column's largest magnitude in ``old``."""
    before, lines = record_columns(old), []
    for name, column in record_columns(new).items():
        was = before.get(name)
        if not (is_numeric(column) and is_numeric(was)):
            note = "unchanged" if column == was else f"{was!r} -> {column!r}"
        elif np.size(column) != np.size(was):
            note = f"{np.size(was)} -> {np.size(column)} values"
        else:
            diff = np.max(np.abs(np.subtract(column, was, dtype=float)))
            scale = np.max(np.abs(np.asarray(was, dtype=float)))
            note = (f"largest relative change {diff / scale:.2e}" if scale
                    else f"largest change {diff:.2e} from zero")
        lines.append(f"  {name}: {note}\n")
    return lines


BUILDERS = {
    PRIM_RECORD: lambda: columns_record(prim_columns()),
    OBM_RECORD: lambda: columns_record(obm_columns()),
    MMS_RECORD: lambda: columns_record(mms_columns()),
    STUDY_RECORD: lambda: {"numpy": np.__version__, "entries": study_entries()},
    THERMO_RECORD: lambda: {"numpy": np.__version__, "stdout": thermo_check_stdout()},
}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="*", metavar="record",
                        help="file names of the records to write (default: all)")
    chosen = parser.parse_args().records
    unknown = set(chosen) - {path.name for path in BUILDERS}
    if unknown:
        parser.error(f"no such record: {', '.join(sorted(unknown))}")
    for path, build in BUILDERS.items():
        if not chosen or path.name in chosen:
            record = build()
            if path.exists():
                sys.stdout.write(f"{path.name} against the file on disk:\n")
                sys.stdout.writelines(largest_changes(json.loads(path.read_text()), record))
            path.write_text(json.dumps(record, indent=1) + "\n")
            sys.stdout.write(f"wrote {path}\n")

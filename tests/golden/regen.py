"""Write the golden records that ``tests/test_golden.py`` compares against.

Run from the repository root, and only when a change of numerical method
is meant to move the recorded numbers:

    PYTHONPATH=src python tests/golden/regen.py

The test never writes a record."""

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
SEED = 7
T_END = 0.006  # 19 steps of the automatic dt at eps = 0.1
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


def columns_record(columns: dict) -> dict:
    return {
        "numpy": np.__version__,
        "steps": len(next(iter(columns.values()))),
        "columns": columns,
    }


if __name__ == "__main__":
    records = {
        PRIM_RECORD: columns_record(prim_columns()),
        OBM_RECORD: columns_record(obm_columns()),
        THERMO_RECORD: {"numpy": np.__version__, "stdout": thermo_check_stdout()},
    }
    for path, record in records.items():
        path.write_text(json.dumps(record, indent=1) + "\n")
        sys.stdout.write(f"wrote {path}\n")

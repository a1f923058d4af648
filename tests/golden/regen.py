"""Write the golden records that ``tests/test_golden.py`` compares against.

Run from the repository root, and only when a change of numerical method
is meant to move the recorded numbers:

    PYTHONPATH=src python tests/golden/regen.py

The test never writes a record."""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
PRIM_RECORD = HERE / "run_prim_random_32x33.json"
SEED = 7
T_END = 0.006  # 19 steps of the automatic dt at eps = 0.1


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


def prim_record() -> dict:
    rows = compressible_run()
    return {
        "numpy": np.__version__,
        "steps": len(rows),
        "columns": {name: [float(getattr(r, name)) for r in rows]
                    for name in rows[0]._fields},
    }


if __name__ == "__main__":
    PRIM_RECORD.write_text(json.dumps(prim_record(), indent=1) + "\n")
    sys.stdout.write(f"wrote {PRIM_RECORD}\n")

"""Golden records: the numbers of short runs, pinned in ``tests/golden``.

Step counts compare exactly; each float column compares at 1e-12 of its
largest recorded magnitude.  Only ``tests/golden/regen.py`` writes the
records; a change that moves them states its change of numerical method."""

import json

import numpy as np

from golden import regen


def test_compressible_run_matches_its_record():
    record = json.loads(regen.PRIM_RECORD.read_text())
    rows = regen.compressible_run()
    assert len(rows) == record["steps"]
    for name, want in record["columns"].items():
        want = np.array(want)
        got = np.array([getattr(r, name) for r in rows])
        tol = 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= tol, (
            f"{name}: largest difference {np.max(np.abs(got - want)):.3e} "
            f"above {tol:.3e} (record written with numpy {record['numpy']})")

"""Golden records: the numbers of short runs, pinned in ``tests/golden``.

Step counts compare exactly; each float column compares at 1e-12 of its
largest recorded magnitude; printed reports compare as exact text.  Only
``tests/golden/regen.py`` writes the records; a change that moves them
states its change of numerical method."""

import json

import numpy as np

from golden import regen


def assert_columns_match(path, columns):
    record = json.loads(path.read_text())
    assert len(next(iter(columns.values()))) == record["steps"]
    assert list(columns) == list(record["columns"])
    for name, want in record["columns"].items():
        want, got = np.array(want), np.array(columns[name])
        tol = 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= tol, (
            f"{name}: largest difference {np.max(np.abs(got - want)):.3e} "
            f"above {tol:.3e} (record written with numpy {record['numpy']})")


def test_compressible_run_matches_its_record():
    assert_columns_match(regen.PRIM_RECORD, regen.prim_columns())


def test_limit_run_matches_its_record():
    assert_columns_match(regen.OBM_RECORD, regen.obm_columns())


def test_thermo_check_prints_its_record():
    record = json.loads(regen.THERMO_RECORD.read_text())
    assert regen.thermo_check_stdout() == record["stdout"], (
        f"record written with numpy {record['numpy']}")

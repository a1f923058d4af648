"""Golden records: the numbers of short runs, pinned in ``tests/golden``.

Step counts compare exactly; each float column compares at 1e-12 of its
largest recorded magnitude, except the rounding-level columns of a
compressible run, the MMS errors and the study (below); printed reports
compare as exact text.  Only
``tests/golden/regen.py`` writes the records; a change that moves them
states its change of numerical method."""

import json

import numpy as np

from golden import regen

# StepRow columns that sit at rounding level (divB_max about 9e-15,
# momentum1 about 1e-9, entropy_floor about 6e-10): at 1e-12 of their own
# largest value they would pin a step bit for bit, so they compare at
# 1e-12 max(1, |column|), as the study's monitors do
ROUNDING_LEVEL = ("divB_max", "momentum1", "entropy_floor")


def assert_columns_match(path, columns):
    record = json.loads(path.read_text())
    assert len(next(iter(columns.values()))) == record["steps"]
    assert list(columns) == list(record["columns"])
    for name, want in record["columns"].items():
        want, got = np.array(want), np.array(columns[name])
        scale = np.max(np.abs(want))
        tol = 1e-12 * (max(1.0, scale) if name in ROUNDING_LEVEL else scale)
        assert np.max(np.abs(got - want)) <= tol, (
            f"{name}: largest difference {np.max(np.abs(got - want)):.3e} "
            f"above {tol:.3e} (record written with numpy {record['numpy']})")


def test_compressible_run_matches_its_record():
    assert_columns_match(regen.PRIM_RECORD, regen.prim_columns())


def test_limit_run_matches_its_record():
    assert_columns_match(regen.OBM_RECORD, regen.obm_columns())


def test_mms_vertical_sweeps_match_their_record():
    """An error norm is a difference of fields of size one, so a change of
    rounding in those fields moves it by about 1e-16 absolutely: 4e-11 of
    the finest limit level's 1.7e-6.  Each level compares at 1e-10 of its
    own recorded value, the agreement asked of MMS errors across changes
    that only reorder operations."""
    record = json.loads(regen.MMS_RECORD.read_text())
    columns = regen.mms_columns()
    assert list(columns) == list(record["columns"])
    for name, want in record["columns"].items():
        want, got = np.array(want), np.array(columns[name])
        assert got.shape == want.shape
        rel = np.max(np.abs(got - want) / want)
        assert rel <= 1e-10, (
            f"{name}: largest relative difference {rel:.3e} above 1e-10 "
            f"(record written with numpy {record['numpy']})")


def test_convergence_study_matches_its_record():
    """Each entry's relative energy is a Bregman difference scaled by
    eps^-2, which amplifies rounding: a change that only moved where a
    state is projected onto its kept modes moved E by 6.3e-10 of the
    entry's largest value.  The samples compare at 1e-8 of that value.
    The deviations are L2 norms of fields of size one and moved by 6.6e-13
    relative; they compare at 1e-10 relative.  The monitors sit at rounding
    level (compat_residual about 8e-15, rel_energy0 about 1e-31, divB_max
    about 1e-14), so they compare at 1e-12 max(1, |v|) and are not pinned
    bit for bit."""
    record = json.loads(regen.STUDY_RECORD.read_text())
    entries = regen.study_entries()
    note = f"(record written with numpy {record['numpy']})"
    assert [e["eps"] for e in entries] == [e["eps"] for e in record["entries"]]
    for got, want in zip(entries, record["entries"]):
        eps = want["eps"]
        assert got["failed"] == want["failed"]
        E_want, E_got = np.array(want["E_total"]), np.array(got["E_total"])
        assert E_got.shape == E_want.shape
        diff = np.max(np.abs(E_got - E_want))
        tol = 1e-8 * np.max(np.abs(E_want))
        assert diff <= tol, f"eps = {eps} E_total: {diff:.3e} above {tol:.3e} {note}"
        for group in ("deviations", "monitors"):
            assert list(got[group]) == list(want[group])
        for name, v in want["deviations"].items():
            rel = abs(got["deviations"][name] - v) / abs(v)
            assert rel <= 1e-10, f"eps = {eps} dev_{name}: relative {rel:.3e} {note}"
        for name, v in want["monitors"].items():
            diff = abs(got["monitors"][name] - v)
            assert diff <= 1e-12 * max(1.0, abs(v)), (
                f"eps = {eps} {name}: difference {diff:.3e} {note}")


def test_thermo_check_prints_its_record():
    record = json.loads(regen.THERMO_RECORD.read_text())
    assert regen.thermo_check_stdout() == record["stdout"], (
        f"record written with numpy {record['numpy']}")


def test_regen_prints_each_columns_largest_relative_change():
    """What regen.py prints before it overwrites a record: per column of
    the new record, its largest change relative to the column's largest
    recorded magnitude, through dicts and lists of entries."""
    old = {"numpy": "2.4.6", "steps": 2, "columns": {"a": [2.0, -4.0], "b": [0.0, 0.0]},
           "entries": [{"eps": 0.1, "failed": None, "E": [1.0, 2.0]}]}
    new = {"numpy": "2.4.6", "steps": 3, "columns": {"a": [2.0, -4.2], "b": [0.0, 1e-3]},
           "entries": [{"eps": 0.1, "failed": "PositivityError", "E": [1.0, 2.0, 3.0]}]}
    assert regen.largest_changes(old, new) == [
        "  numpy: unchanged\n",
        "  steps: largest relative change 5.00e-01\n",
        "  columns.a: largest relative change 5.00e-02\n",
        "  columns.b: largest change 1.00e-03 from zero\n",
        "  entries.0.eps: largest relative change 0.00e+00\n",
        "  entries.0.failed: None -> 'PositivityError'\n",
        "  entries.0.E: 2 -> 3 values\n",
    ]

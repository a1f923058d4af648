"""Each output check accepts a real run and rejects a perturbed one.

    python3 -m pytest benchmarks/tests

The runs here are small versions of the workloads, so the whole file takes
a few seconds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import workloads
from obmlab import cli

SMALL_MHD = """\
[grid]
n1 = 16
n3 = 33
[mhd]
eps = 0.1
t_end = 0.004
profile = random
[output]
prefix = bench
snapshots = 2
"""

SMALL_OBM = """\
[grid]
n1 = 16
n3 = 129
[obm]
dt = {dt}
t_end = {t_end}
profile = random
[output]
prefix = bench
snapshots = 2
"""


def _run(tmp_path, command, config, seed=3):
    path = tmp_path / "bench.cfg"
    path.write_text(config)
    code = cli.main([command, "--config", str(path), "--out", str(tmp_path),
                     "--seed", str(seed), "--quiet"])
    assert code == 0
    return tmp_path


def _edit_csv(path, column, row, value):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = repr(float(value))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edit_snapshot(path, name, fn):
    fields = checks.read_snapshot(path)
    raw = bytearray(path.read_bytes())
    offset = 24
    for key, data in fields.items():
        if key == name:
            new = fn(data.copy()).astype("<f8").tobytes()
            raw[offset + 8:offset + 8 + len(new)] = new
        offset += 8 + data.nbytes
    path.write_bytes(bytes(raw))


@pytest.fixture
def mhd_run(tmp_path):
    return _run(tmp_path, "run-mhd", SMALL_MHD)


@pytest.fixture
def obm_run(tmp_path):
    return _run(tmp_path, "run-obm", SMALL_OBM.format(dt=1e-3, t_end=0.02))


def check_mhd(outdir):
    return checks.check_mhd(outdir, "bench", 0.004, 2)


def check_obm(outdir, t_end=0.02):
    return checks.check_obm(outdir, "bench", t_end, 2)


def test_mhd_check_accepts_a_clean_run(mhd_run):
    assert check_mhd(mhd_run) == []


@pytest.mark.parametrize("column, value, what", [
    ("t", 0.0039, "last CSV time"),
    ("mass", 2.0 * (1 + 1e-10), "mass drift"),
    ("divB_max", 1e-6, "div B"),
    ("theta_min", -1e-3, "rho or theta"),
])
def test_mhd_check_rejects_perturbed_csv(mhd_run, column, value, what):
    csv = mhd_run / "bench_mhd.csv"
    rows = len(csv.read_text().splitlines())
    _edit_csv(csv, column, rows - 1, value)
    assert any(what in p for p in check_mhd(mhd_run))


def test_mhd_check_rejects_a_truncated_snapshot(mhd_run):
    snap = mhd_run / "bench_mhd_001.snap"
    snap.write_bytes(snap.read_bytes()[:-8])
    assert any("whole number" in p for p in check_mhd(mhd_run))


def test_mhd_check_rejects_a_missing_snapshot(mhd_run):
    (mhd_run / "bench_mhd_002.snap").unlink()
    assert any("expected 3" in p for p in check_mhd(mhd_run))


def test_mhd_check_rejects_nonpositive_density_in_a_snapshot(mhd_run):
    def dent(rho):
        rho[5, 5] = 0.0
        return rho
    _edit_snapshot(mhd_run / "bench_mhd_002.snap", "rho", dent)
    assert any("rho or theta" in p for p in check_mhd(mhd_run))


def test_obm_check_accepts_a_clean_run(obm_run):
    assert check_obm(obm_run) == []


def test_obm_check_rejects_a_perturbed_mean_temperature(obm_run):
    csv = obm_run / "bench_obm.csv"
    start = checks.read_snapshot(obm_run / "bench_obm_000.snap")["theta1"]
    last = checks.read_csv(csv)["mean_theta1"][-1]
    _edit_csv(csv, "mean_theta1", 20, last + 1e-4 * np.abs(start).max())
    assert any("final mean theta1" in p for p in check_obm(obm_run))


def test_obm_check_rejects_a_perturbed_temperature_profile(obm_run):
    def warm(theta1):
        theta1[60] += 1e-4 * np.abs(theta1).max()
        return theta1
    _edit_snapshot(obm_run / "bench_obm_002.snap", "theta1", warm)
    assert any("horizontal-mean theta1" in p for p in check_obm(obm_run))


def test_obm_check_rejects_a_perturbed_b1(obm_run):
    _edit_snapshot(obm_run / "bench_obm_002.snap", "b1",
                   lambda b1: b1 * (1 + 1e-4))
    assert any("exact decay" in p for p in check_obm(obm_run))


def test_obm_check_rejects_a_run_that_stops_short(tmp_path):
    # run_obm rounds (t_end - t) / dt to a step count: 0.1 / 0.03 -> 3 steps
    run = _run(tmp_path, "run-obm", SMALL_OBM.format(dt=0.03, t_end=0.1))
    assert any("is not t_end" in p for p in check_obm(run, t_end=0.1))


def _study(sup=(3.0, 2.0, 1.0), eps=(0.2, 0.1, 0.05), rate=None, **monitor):
    mon = {"mass_drift": 0.0, "divB_max": 1e-14, "entropy_prod_min": 1e-4}
    mon.update(monitor)
    if rate is None:
        rate = float(np.polyfit(np.log(eps), np.log(sup), 1)[0])
    entries = [SimpleNamespace(eps=e, sup_E=s, monitors=mon, failed=None)
               for e, s in zip(eps, sup)]
    return SimpleNamespace(entries=entries, rate=rate)


def test_study_check_accepts_a_decreasing_sweep():
    assert checks.check_study(_study(), (0.2, 0.1, 0.05)) == []


@pytest.mark.parametrize("report, what", [
    (_study(sup=(3.0, 3.0, 1.0)), "not strictly decreasing"),
    (_study(rate=0.5), "refit"),
    (_study(sup=(1.0, 2.0, 3.0)), "refit"),
    (_study(mass_drift=1e-9), "mass drift"),
    (_study(divB_max=1e-8), "div B"),
    (_study(entropy_prod_min=-1e-15), "entropy production"),
])
def test_study_check_rejects(report, what):
    assert any(what in p for p in checks.check_study(report, (0.2, 0.1, 0.05)))


def test_study_check_rejects_a_failed_entry():
    report = _study()
    report.entries[2].failed = "PositivityError: lost"
    assert checks.check_study(report, (0.2, 0.1, 0.05))


def _table(order, h=(1 / 16, 1 / 32, 1 / 64)):
    h = np.array(h)
    return SimpleNamespace(spacings=h, combined=0.3 * h ** order)


def test_mms_check_accepts_second_order():
    tables = {"prim-vertical": _table(2.0), "obm-vertical": _table(2.05),
              "prim-horizontal": _table(0.0)}
    assert checks.check_mms(tables) == []


@pytest.mark.parametrize("tables, what", [
    ({"prim-vertical": _table(1.5)}, "outside"),
    ({"obm-vertical": _table(2.5)}, "outside"),
    ({"obm-horizontal": _table(0.5)}, "floor ratio"),
    ({"prim-vertical": SimpleNamespace(spacings=np.array([0.1, 0.05]),
                                       combined=np.array([1e-3, np.nan]))},
     "errors"),
])
def test_mms_check_rejects(tables, what):
    assert any(what in p for p in checks.check_mms(tables))


def test_cli_workloads_fail_on_a_nonzero_exit(tmp_path):
    clock = workloads.Clock()
    with pytest.raises(RuntimeError, match="exited with code 2"):
        workloads._cli_run("run-obm", "[grid]\nn1 = 3\n", 0, tmp_path, clock,
                           "run_obm")


def test_tracer_counts_one_banded_solve_per_mode(tmp_path):
    """In a separate process, since tracing rebinds obmlab's functions."""
    (tmp_path / "bench.cfg").write_text(SMALL_OBM.format(dt=1e-3, t_end=0.02))
    script = (
        "import json, sys, tracing\n"
        "from obmlab import cli\n"
        "tracer = tracing.Tracer(); tracer.install()\n"
        "code = cli.main(['run-obm', '--config', sys.argv[1] + '/bench.cfg',"
        " '--out', sys.argv[1], '--quiet'])\n"
        "print(json.dumps(tracer.metrics()))\n")
    bench = Path(checks.__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(bench), str(bench.parent / "src")]))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    metrics = json.loads(out.stdout.splitlines()[-1])
    assert metrics["obm.steps"] == 20
    assert metrics["mhd.steps"] == 0
    assert metrics["obm.solve_banded_per_step"] == 2 * (16 // 2 + 1)
    assert metrics["fields.fft_per_step"] > 0
    sizes = sum(p.stat().st_size for p in tmp_path.glob("bench_obm_*.snap"))
    assert metrics["fields.snapshot_mb"] == sizes / 1e6

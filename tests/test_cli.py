"""Tests for the command-line driver: config handling, exit codes, outputs."""

import contextlib
import io
import os
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obmlab.cli import (
    _DEFAULTS,
    ConfigError,
    RunConfig,
    _initial_profiles,
    _random_modes,
    main,
)
from obmlab.fields import Geometry, Grid, read_snapshot
from obmlab.obm import ObmConfig


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


SMALL_OBM = """\
    [grid]
    n1 = 16
    n3 = 17

    [obm]
    dt = 2e-3
    t_end = 0.02

    [output]
    snapshots = 4
"""

SMALL_MHD = """\
    [grid]
    n1 = 16
    n3 = 17

    [mhd]
    eps = 0.5
    t_end = 0.01

    [output]
    snapshots = 2
"""


# -- configuration ------------------------------------------------------------


def test_defaults_load_without_a_file():
    cfg = RunConfig.load(None)
    assert cfg["grid"]["n1"] == 64
    assert cfg["grid"]["n3"] == 65
    assert cfg["mhd"]["dt"] == 0.0
    assert cfg.eps_list() == [0.2, 0.1, 0.05]
    assert cfg.make_grid().shape == (65, 64)


def test_values_are_coerced_by_key_type(tmp_path):
    path = write_config(tmp_path, """\
        [grid]
        n1 = 32

        [obm]
        dt = 5e-4   # inline comment
    """)
    cfg = RunConfig.load(path)
    assert cfg["grid"]["n1"] == 32 and isinstance(cfg["grid"]["n1"], int)
    assert cfg["obm"]["dt"] == 5e-4


def test_unknown_key_is_rejected(tmp_path):
    path = write_config(tmp_path, "[thermo]\nbogus = 3\n")
    with pytest.raises(ConfigError, match="bogus"):
        RunConfig.load(path)


def test_unknown_section_is_rejected(tmp_path):
    path = write_config(tmp_path, "[extras]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        RunConfig.load(path)


def test_non_numeric_value_is_rejected(tmp_path):
    path = write_config(tmp_path, "[grid]\nn1 = many\n")
    with pytest.raises(ConfigError, match="n1"):
        RunConfig.load(path)


def test_eps_list_must_decrease(tmp_path):
    path = write_config(tmp_path, "[study]\neps_list = 0.1, 0.2\n")
    with pytest.raises(ConfigError, match="decreasing"):
        RunConfig.load(path)


def test_missing_config_file_is_an_error():
    with pytest.raises(ConfigError):
        RunConfig.load("/no/such/file.ini")


# -- initial data helpers ------------------------------------------------------


def test_random_modes_wall_compatible_and_mean_free():
    g = Grid(Geometry.STRIP2, 16, n3=17)
    th, b1 = _random_modes(g, theta_amp=0.1, b_amp=0.25, seed=3)
    assert np.max(np.abs(th[0])) < 1e-13
    assert np.max(np.abs(th[-1])) < 1e-13
    assert abs(np.mean(b1)) < 1e-14
    assert np.max(np.abs(th)) == pytest.approx(0.1, rel=1e-12)
    assert np.max(np.abs(b1)) == pytest.approx(0.25, rel=1e-12)
    again, _ = _random_modes(g, theta_amp=0.1, b_amp=0.25, seed=3)
    assert np.array_equal(th, again)


def test_profile_lift_matches_wall_temperatures():
    g = Grid(Geometry.STRIP2, 16, n3=17)
    cfg = RunConfig.load(None)
    ocfg = ObmConfig(g, cfg.gas(), cfg.ref(), np.zeros(g.shape),
                     (0.05, -0.02), dt=1.0, t_end=0.0)
    th, _ = _initial_profiles(ocfg, cfg["obm"], seed=0, walls=(0.05, -0.02))
    assert np.allclose(th[0], 0.05, atol=1e-13)
    assert np.allclose(th[-1], -0.02, atol=1e-13)


# -- exit codes ----------------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_bad_gas_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "[thermo]\na = -2.0\n")
    assert main(["thermo-check", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["nan", "0.2, inf", "1e400, 0.1"])
def test_eps_list_must_be_finite(tmp_path, raw):
    path = write_config(tmp_path, f"[study]\neps_list = {raw}\n")
    with pytest.raises(ConfigError, match="eps_list"):
        RunConfig.load(path)


@pytest.mark.parametrize("body, what", [
    ("[grid]\nn3 = 1000000000000\n", "n3"),
    ("[grid]\nn1 = 9223372036854775808\n", "n1"),
    ("[thermo]\nn_points = 99999999999999999999999\n", "n_points"),
])
def test_oversized_counts_are_rejected(tmp_path, body, what):
    path = write_config(tmp_path, body)
    with pytest.raises(ConfigError, match=what):
        RunConfig.load(path)


def test_undecodable_config_exits_2(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_bytes(b"[grid]\nn1 = \xff\xfe\n")
    assert main(["thermo-check", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("obmlab: config error:")


@pytest.mark.parametrize("command, section, n1, profile", [
    ("run-mhd", "mhd", 4, "random"),
    ("run-obm", "obm", 8, "random"),
    ("run-obm", "obm", 4, "smooth"),
    ("converge", "study", 8, "random"),
])
def test_grid_too_coarse_for_profile_exits_2(tmp_path, capsys, command, section,
                                             n1, profile):
    path = write_config(tmp_path, f"""\
        [grid]
        n1 = {n1}
        n3 = 9

        [{section}]
        profile = {profile}
    """)
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"obmlab: config error: [grid] n1 = {n1} ")
    assert "profile" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("n1, profile", [(8, "smooth"), (16, "random")])
def test_grid_just_fine_enough_for_profile_loads(tmp_path, n1, profile):
    body = f"[grid]\nn1 = {n1}\n" + "".join(
        f"[{sec}]\nprofile = {profile}\n" for sec in ("obm", "mhd", "study"))
    RunConfig.load(write_config(tmp_path, body))


_VALUES = st.one_of(
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.floats().map(repr),
    st.sampled_from(["smooth", "random", "linear", "zero", "none", "nan", "inf",
                     "1e400", "0.2, 0.1", "0.1 0.2", "", "run", "a/b"]),
    st.text(max_size=12),
)
_LINES = st.one_of(
    st.one_of(st.sampled_from(list(_DEFAULTS)), st.text(max_size=8))
    .map(lambda sec: f"[{sec}]"),
    st.builds(lambda key, value: f"{key} = {value}",
              st.one_of(st.sampled_from(sorted({k for keys in _DEFAULTS.values()
                                                for k in keys})),
                        st.text(max_size=8)),
              _VALUES),
    st.text(max_size=24),
)


@settings(max_examples=300, deadline=None)
@given(payload=st.one_of(
    st.lists(_LINES, max_size=10).map(lambda lines: "\n".join(lines).encode()),
    st.text().map(str.encode),
    st.binary(max_size=64)))
def test_config_loader_property(payload):
    """Any file either loads as a config or makes main exit 2 with a
    config-error message, never with a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "wb") as fh:
            fh.write(payload)
        try:
            RunConfig.load(path)
        except ConfigError:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["thermo-check", "--config", path, "--out", tmp])
            assert code == 2
            assert err.getvalue().startswith("obmlab: config error: ")
            assert "Traceback" not in err.getvalue()


def test_unknown_key_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "[thermo]\nbogus = 1\n")
    assert main(["thermo-check", "--config", path]) == 2
    capsys.readouterr()


def test_bad_grid_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "[grid]\nn1 = 7\n")
    assert main(["run-obm", "--config", path]) == 2
    capsys.readouterr()


def test_mhd_blowup_exits_3(tmp_path, capsys):
    path = write_config(tmp_path, """\
        [grid]
        n1 = 16
        n3 = 17

        [mhd]
        eps = 0.1
        dt = 0.5
        t_end = 0.5

        [output]
        snapshots = 0
    """)
    assert main(["run-mhd", "--config", path, "--out", str(tmp_path),
                 "--quiet"]) == 3
    assert "numerical failure" in capsys.readouterr().err


# -- thermo-check --------------------------------------------------------------


def test_thermo_check_passes_and_prints_table(capsys):
    assert main(["thermo-check"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "thermo-check: PASS" in out


def test_thermo_check_entropy_constant_tamper_still_passes(tmp_path, capsys):
    # shifting the additive entropy constant keeps the Gibbs relation intact
    path = write_config(tmp_path, "[thermo]\ntamper = entropy-constant\n")
    assert main(["thermo-check", "--config", path, "--quiet"]) == 0
    capsys.readouterr()


def test_thermo_check_entropy_slope_tamper_fails(tmp_path, capsys):
    path = write_config(tmp_path, "[thermo]\ntamper = entropy-slope\n")
    assert main(["thermo-check", "--config", path]) == 1
    assert "FAIL" in capsys.readouterr().out


# -- run-obm -------------------------------------------------------------------


def test_run_obm_writes_csv_and_snapshots(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_OBM)
    out = tmp_path / "out"
    assert main(["run-obm", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "run_obm.csv").read_text().splitlines()
    assert lines[0] == ("t,mean_theta1,chi,kinetic_energy,"
                        "magnetic_energy,continuity_residual")
    assert len(lines) == 11  # header + 10 steps
    snaps = sorted(out.glob("run_obm_*.snap"))
    assert len(snaps) == 5
    grid, fields = read_snapshot(snaps[-1])
    assert grid.shape == (17, 16)
    assert set(fields) == {"theta1", "b1"}
    assert np.all(np.isfinite(fields["theta1"]))


@pytest.mark.parametrize("dt, steps", [(0.03, 4), (0.4, 1)])
def test_run_obm_lands_on_t_end(tmp_path, capsys, dt, steps):
    """A dt that does not divide t_end is shrunk to land on it, never
    rounded to a run that stops short."""
    path = write_config(tmp_path, f"""\
        [grid]
        n1 = 16
        n3 = 17

        [obm]
        dt = {dt}
        t_end = 0.1

        [output]
        snapshots = 4
    """)
    out = tmp_path / "out"
    assert main(["run-obm", "--config", path, "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    rows = (out / "run_obm.csv").read_text().splitlines()[1:]
    assert len(rows) == steps
    assert float(rows[-1].split(",")[0]) == pytest.approx(0.1, rel=1e-14)
    assert len(list(out.glob("run_obm_*.snap"))) == 5


def test_run_obm_zero_data_rows_are_zero(tmp_path, capsys):
    path = write_config(tmp_path, """\
        [grid]
        n1 = 16
        n3 = 17

        [obm]
        dt = 2e-3
        t_end = 0.01
        theta_amp = 0.0
        b_amp = 0.0

        [output]
        snapshots = 0
    """)
    out = tmp_path / "out"
    assert main(["run-obm", "--config", path, "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    for line in (out / "run_obm.csv").read_text().splitlines()[1:]:
        assert line.split(",")[1:] == ["0", "0", "0", "0", "0"]


def test_run_obm_is_byte_deterministic(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_OBM)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run-obm", "--config", path, "--out", str(out),
                     "--quiet"]) == 0
        outs.append(out)
    capsys.readouterr()
    assert (outs[0] / "run_obm.csv").read_bytes() \
        == (outs[1] / "run_obm.csv").read_bytes()
    assert (outs[0] / "run_obm_004.snap").read_bytes() \
        == (outs[1] / "run_obm_004.snap").read_bytes()


def test_seed_changes_random_profile_output(tmp_path, capsys):
    path = write_config(tmp_path, """\
        [grid]
        n1 = 16
        n3 = 17

        [obm]
        dt = 2e-3
        t_end = 0.01
        profile = random

        [output]
        snapshots = 0
        seed = 7
    """)
    csvs = {}
    for name, argv in (
            ("base", []),
            ("same", []),
            ("other", ["--seed", "8"])):
        out = tmp_path / name
        assert main(["run-obm", "--config", path, "--out", str(out),
                     "--quiet", *argv]) == 0
        csvs[name] = (out / "run_obm.csv").read_bytes()
    capsys.readouterr()
    assert csvs["base"] == csvs["same"]
    assert csvs["base"] != csvs["other"]


# -- run-mhd -------------------------------------------------------------------


def test_run_mhd_writes_rows_and_passes_entropy_check(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_MHD)
    out = tmp_path / "out"
    assert main(["run-mhd", "--config", path, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "entropy production" in text and "PASS" in text
    lines = (out / "run_mhd.csv").read_text().splitlines()
    assert lines[0] == ("t,mass,momentum1,total_energy,ballistic_energy,"
                        "divB_max,rho_min,theta_min,entropy_production")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows.shape[1] == 9
    assert np.all(rows[:, 8] >= 0.0)
    assert np.all(rows[:, 6] > 0.0)
    assert len(sorted(out.glob("run_mhd_*.snap"))) == 3
    grid, fields = read_snapshot(sorted(out.glob("run_mhd_*.snap"))[0])
    assert set(fields) == {"rho", "u1", "u2", "u3", "theta", "B1", "B2", "B3"}


def test_run_mhd_entropy_fault_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_MHD)
    out = tmp_path / "out"
    code = main(["run-mhd", "--config", path, "--out", str(out),
                 "--inject-entropy-fault"])
    text = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in text


def test_run_mhd_is_byte_deterministic(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_MHD)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run-mhd", "--config", path, "--out", str(out),
                     "--quiet"]) == 0
        blobs.append((out / "run_mhd.csv").read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]


# -- converge ------------------------------------------------------------------


def test_converge_small_study(tmp_path, capsys):
    path = write_config(tmp_path, """\
        [grid]
        n1 = 16
        n3 = 17

        [study]
        eps_list = 0.4, 0.2
        dt = 2e-3
        t_end = 0.02
        n_snap = 4
    """)
    out = tmp_path / "out"
    assert main(["converge", "--config", path, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "sup_E strictly decreasing: yes" in text
    lines = (out / "run_study.csv").read_text().splitlines()
    assert lines[0] == ("eps,sup_E,sup_E_ess,sup_E_res,"
                        "dev_rho,dev_theta,dev_u,dev_B,failed")
    assert len(lines) == 3
    sup = [float(line.split(",")[1]) for line in lines[1:]]
    assert sup[1] < sup[0]
    assert all(line.split(",")[-1] == "0" for line in lines[1:])
    assert (out / "run_study.txt").exists()


# -- mms -----------------------------------------------------------------------


def test_mms_command_reports_orders(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["mms", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "mms: PASS" in text
    assert text.count("orders within [1.8, 2.2]: yes") == 2
    lines = (out / "run_mms.csv").read_text().splitlines()
    assert lines[0] == "sweep,n,spacing,error,order"
    assert len(lines) == 13  # four sweeps, three levels each

"""Tests for the command-line driver: config handling, exit codes, outputs."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obmlab
from obmlab.cli import (
    _DEFAULTS,
    _MAX_COUNT,
    ConfigError,
    RunConfig,
    _check_automatic_steps,
    _initial_profiles,
    _random_modes,
    main,
)
from obmlab.fields import Geometry, Grid, mean_arr, read_snapshot
from obmlab.mhd import PrimConfig, cfl_limits
from obmlab.obm import ObmConfig, default_potential
from obmlab.relent import well_prepared_data


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
    # time steps too small to reach t_end within the bound
    ("[obm]\ndt = 1e-320\n", r"\[obm\] dt"),
    ("[obm]\ndt = 1e-300\n", r"\[obm\] dt"),
    ("[study]\ndt = 1e-300\n", r"\[study\] dt"),
    ("[mhd]\ndt = 1e-300\n", r"\[mhd\] dt"),
    ("[obm]\nt_end = 2.0\ndt = 1e-6\n", r"\[obm\] dt"),
])
def test_oversized_counts_are_rejected(tmp_path, body, what):
    path = write_config(tmp_path, body)
    with pytest.raises(ConfigError, match=what):
        RunConfig.load(path)


def test_tiny_dt_exits_2_with_a_message(tmp_path, capsys):
    path = write_config(tmp_path, "[obm]\ndt = 1e-320\n")
    assert main(["run-obm", "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("obmlab: config error: [obm] dt")


def test_dt_at_the_step_bound_loads(tmp_path):
    # exactly 2**20 steps to t_end; an automatic [mhd] dt = 0 has no bound
    path = write_config(tmp_path, f"""\
        [obm]
        t_end = 1.0
        dt = {2.0 ** -20!r}

        [mhd]
        dt = 0.0
    """)
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


def run_python(*args, timeout=60):
    """A fresh interpreter that imports this obmlab, killed after
    ``timeout`` seconds so that a run which would never end fails the test
    instead of hanging it."""
    src = os.path.dirname(os.path.dirname(obmlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env=dict(os.environ, PYTHONPATH=path))


def run_child(*argv, timeout=60, python_flags=()):
    """obmlab in a child process (:func:`run_python`)."""
    return run_python(*python_flags, "-m", "obmlab.cli", *argv, timeout=timeout)


IMPORT_PROBE = """
import sys
before = set(sys.modules)
import obmlab.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
print("scipy" in sys.modules, "sympy" in sys.modules,
      "solve_banded" in vars(sys.modules["obmlab.obm"]))
"""


def test_cli_import_loads_only_numpy_and_the_standard_library():
    """A cold ``import obmlab.cli`` loads numpy, the standard library and
    obmlab alone: scipy stays out, and sympy waits for the mms subcommand."""
    done = run_python("-c", IMPORT_PROBE)
    assert done.returncode == 0, done.stderr
    third_party, flags = done.stdout.splitlines()
    assert set(third_party.split()) <= {"numpy", "obmlab"}
    assert flags == "False False False"


def test_obm_solve_banded_is_scipys_for_the_tracer():
    """benchmarks/tracing.py wraps ``obm.solve_banded``; the name resolves to
    scipy's on demand, without a module attribute."""
    linalg = pytest.importorskip("scipy.linalg")
    from obmlab import obm
    assert obm.solve_banded is linalg.solve_banded


@pytest.mark.parametrize("eps", ["1e-60", "1e-300"])
@pytest.mark.parametrize("command, section, key", [
    ("run-mhd", "mhd", "eps"),
    ("converge", "study", "eps_list"),
])
def test_tiny_mach_number_with_automatic_dt_exits_2(tmp_path, command, section,
                                                    key, eps):
    """The acoustic CFL bound shrinks with eps, so at tiny eps the automatic
    dt would need far more steps than the loader admits for a given dt."""
    value = eps if key == "eps" else f"0.1, {eps}"
    path = write_config(tmp_path,
                        f"[grid]\nn1 = 16\nn3 = 17\n[{section}]\n{key} = {value}\n")
    done = run_child(command, "--config", path, "--out", str(tmp_path))
    assert done.returncode == 2
    if float(eps) ** 2 == 0.0:  # rejected by the loader before any run
        assert f"obmlab: config error: [{section}] {key}" in done.stderr
        assert f"{float(eps):g} is too small: its square underflows" in done.stderr
    else:
        assert f"obmlab: config error: [{section}] eps = {float(eps):g} needs more than" \
            in done.stderr
    assert "Traceback" not in done.stderr
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, section, value", [
    ("run-mhd", "mhd", "eps = 1e-300"),
    ("run-mhd", "mhd", "eps = 1e-155"),
    ("converge", "study", "eps_list = 0.1, 1e-160"),
    ("converge", "study", "eps_list = 1e-170, 0.1"),
])
def test_mach_number_whose_square_underflows_exits_2_without_warnings(
        tmp_path, command, section, value):
    """With warnings as errors, the loader rejects eps with eps**2 below
    the smallest normal float before any division by it."""
    path = write_config(tmp_path, f"[{section}]\n{value}\n")
    done = run_child(command, "--config", path, "--out", str(tmp_path),
                     python_flags=("-W", "error"))
    assert done.returncode == 2
    assert done.stderr.startswith(f"obmlab: config error: [{section}] eps")
    assert done.stderr.endswith("is too small: its square underflows\n")
    assert done.stderr.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


def test_smallest_mach_number_with_a_normal_square_loads(tmp_path):
    eps = float(np.sqrt(np.finfo(float).tiny)) * 1.0000001
    path = write_config(tmp_path, f"[mhd]\neps = {eps!r}\n"
                        f"[study]\neps_list = 0.1, {eps!r}\n")
    cfg = RunConfig.load(path)
    assert cfg["mhd"]["eps"] == eps and cfg.eps_list()[-1] == eps


def test_automatic_step_bound_is_inclusive():
    g = Grid(Geometry.STRIP2, 16, n3=17)
    cfg = RunConfig.load(None)
    ocfg = ObmConfig(g, cfg.gas(), cfg.ref(), default_potential(g), (0.0, 0.0),
                     dt=1.0, t_end=0.0)
    th, b1 = _initial_profiles(ocfg, cfg["mhd"], 0, (0.0, 0.0))
    prim = well_prepared_data(th, b1, ocfg, 0.1)[0]
    pcfg = PrimConfig(g, ocfg.gas, ocfg.ref, ocfg.G, ocfg.theta_B, safety=0.5)
    t_end = 0.5 * cfl_limits(prim, pcfg) * _MAX_COUNT
    _check_automatic_steps("mhd", prim, pcfg, t_end)
    with pytest.raises(ConfigError, match=r"\[mhd\] eps = 0.1 needs more than"):
        _check_automatic_steps("mhd", prim, pcfg, t_end * (1.0 + 1e-12))


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


def test_run_obm_without_steps_reports_the_initial_mean(tmp_path, capsys):
    """With t_end = 0 the printed mean theta1 is that of the initial data,
    and of the 25 snapshots configured the run writes one, 000, of that
    data."""
    path = write_config(tmp_path, """\
        [grid]
        n1 = 16
        n3 = 17

        [obm]
        t_end = 0.0
        theta_b_bottom = 1.0
    """)
    assert main(["run-obm", "--config", path, "--out", str(tmp_path)]) == 0
    cfg = RunConfig.load(path)
    g = cfg.make_grid()
    ocfg = ObmConfig(g, cfg.gas(), cfg.ref(), default_potential(g),
                     cfg.wall_temps("obm"), dt=1.0, t_end=0.0)
    th, b1 = _initial_profiles(ocfg, cfg["obm"], 0, cfg.wall_temps("obm"))
    mean = mean_arr(th, g)
    assert mean > 0.1
    out = capsys.readouterr().out
    assert f"0 steps to t = 0, mean theta1 = {mean:.6e}" in out
    assert "and 1 snapshots" in out
    assert [f.name for f in tmp_path.glob("run_obm_*.snap")] == ["run_obm_000.snap"]
    saved_grid, fields = read_snapshot(str(tmp_path / "run_obm_000.snap"))
    assert saved_grid == g
    assert np.array_equal(fields["theta1"], th)
    assert np.array_equal(fields["b1"], np.broadcast_to(b1, g.shape))


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


def test_run_mhd_evaluates_entropy_production_once_per_step(tmp_path, capsys,
                                                           monkeypatch):
    from obmlab import mhd
    original = mhd._entropy_terms
    calls = []

    def counted(state, work, fault):
        calls.append(fault)
        return original(state, work, fault)

    # the body behind the public entropy_production_terms too, so a second
    # pass by any route would be counted
    monkeypatch.setattr(mhd, "_entropy_terms", counted)
    path = write_config(tmp_path, SMALL_MHD)
    out = tmp_path / "out"
    assert main(["run-mhd", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    steps = len((out / "run_mhd.csv").read_text().splitlines()) - 1
    assert steps > 1
    assert len(calls) == steps
    calls.clear()
    assert main(["run-mhd", "--config", path, "--out", str(out),
                 "--inject-entropy-fault"]) == 1
    assert "pointwise floor = -" in capsys.readouterr().out
    assert calls == [True] * steps


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
    # one progress line per Mach number, in order, before the summary table
    printed = text.splitlines()
    progress = [line for line in printed if line.startswith("converge: ")]
    assert progress == [f"converge: eps = {eps}, sup_E = {s:.6e} OK"
                        for eps, s in zip(("0.4", "0.2"), sup)]
    assert printed.index(progress[-1]) < printed.index(
        next(line for line in printed if line.lstrip().startswith("eps")))
    quiet = tmp_path / "quiet"
    assert main(["converge", "--config", path, "--out", str(quiet),
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    for name in ("run_study.csv", "run_study.txt"):
        assert (quiet / name).read_bytes() == (out / name).read_bytes()


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

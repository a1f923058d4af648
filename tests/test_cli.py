"""Tests for the command-line driver: config handling, exit codes, outputs."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import textwrap
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obmlab
from obmlab import mhd
from obmlab.cli import (
    _DEFAULTS,
    _MHD_HEADER,
    ConfigError,
    RunConfig,
    _check_automatic_steps,
    _initial_profiles,
    _random_modes,
    main,
)
from obmlab.fields import Geometry, Grid, mean_arr, read_snapshot
from obmlab.mhd import PrimConfig, cfl_limits, snapshot_fields
from obmlab.obm import _MAX_STEPS, ObmConfig, default_potential
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
    # grids whose fields no run could allocate
    ("[grid]\nn1 = 1048576\nn3 = 1048576\n", r"\[grid\] n1 x n3 = 1048576 x 1048576"),
    ("[grid]\nn1 = 4096\nn3 = 4097\n", r"\[grid\] n1 x n3 = 4096 x 4097"),
])
def test_oversized_counts_are_rejected(tmp_path, body, what):
    path = write_config(tmp_path, body)
    with pytest.raises(ConfigError, match=what):
        RunConfig.load(path)


def test_tiny_dt_exits_2_with_a_message(tmp_path, capsys):
    path = write_config(tmp_path, "[obm]\ndt = 1e-320\n")
    assert main(["run-obm", "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("obmlab: config error: [obm] dt")


def test_largest_grid_loads(tmp_path):
    # 2048 x 2049 points stay within the 2**23 bound on one field
    path = write_config(tmp_path, "[grid]\nn1 = 2048\nn3 = 2049\n")
    assert RunConfig.load(path)["grid"]["n3"] == 2049


def test_oversized_grid_exits_2_before_any_field_is_built(tmp_path, capsys):
    # thermo-check builds no field, so only the loader can refuse the grid
    path = write_config(tmp_path, "[grid]\nn1 = 1048576\nn3 = 1048576\n")
    assert main(["thermo-check", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("obmlab: config error: [grid] n1 x n3")


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


@pytest.mark.parametrize("key", ["bogus", "eta_high"])  # the model has no bulk viscosity
def test_unknown_key_exits_2(tmp_path, capsys, key):
    path = write_config(tmp_path, f"[thermo]\n{key} = 1\n")
    assert main(["thermo-check", "--config", path]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("section, key, value", [
    ("thermo", "p_inf", "nan"),
    ("thermo", "n_points", "0"),
    ("thermo", "fd_step", "0"),
    ("thermo", "tamper", "bogus"),
    ("obm", "profile", "bogus"),
    ("obm", "t_end", "-1"),
    ("obm", "dt", "0"),
    ("mhd", "profile", "bogus"),
    ("mhd", "g_profile", "bogus"),
    ("mhd", "t_end", "-1"),
    ("mhd", "eps", "0"),
    ("mhd", "dt", "-1"),
    ("mhd", "safety", "0"),
    ("mhd", "safety", "1.5"),
    ("study", "eps_list", "0.1, x"),
    ("study", "eps_list", "0.1, -0.1"),
    ("study", "dt", "0"),
    ("study", "t_end", "0"),
    ("study", "n_snap", "0"),
    ("study", "profile", "bogus"),
    ("output", "snapshots", "-1"),
    ("output", "seed", "-1"),
    ("output", "prefix", "a/b"),
])
def test_bad_value_exits_2_naming_its_key(tmp_path, capsys, section, key, value):
    """Each loader check: exit 2 with one message that names the section and
    key, no traceback, and no output directory."""
    path = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main(["thermo-check", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"obmlab: config error: [{section}] {key}")
    assert "Traceback" not in err
    assert not out.exists()


def test_keys_outside_a_section_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, "[DEFAULT]\nn1 = 16\n")
    assert main(["thermo-check", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(
        "obmlab: config error: keys outside a [section] header")


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
from obmlab import mms
from obmlab.fields import Geometry, Grid
grid = Grid(Geometry.STRIP2, n1=8, n3=9)
for case in (mms.PrimCase(), mms.ObmCase()):
    case.source(grid)(0.1)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
print("scipy" in sys.modules, "sympy" in sys.modules,
      "solve_banded" in vars(sys.modules["obmlab.obm"]),
      "multiprocessing" in sys.modules, "concurrent.futures" in sys.modules)
"""


def test_cli_import_loads_only_numpy_and_the_standard_library():
    """A cold ``import obmlab.cli``, followed by building both
    manufactured-solution cases and evaluating their sources, loads numpy,
    the standard library and obmlab alone: neither scipy nor sympy, nor the
    process pool that only a study with workers imports."""
    done = run_python("-c", IMPORT_PROBE)
    assert done.returncode == 0, done.stderr
    third_party, flags = done.stdout.splitlines()
    assert set(third_party.split()) <= {"numpy", "obmlab"}
    assert flags == "False False False False False"


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
    t_end = 0.5 * cfl_limits(prim, pcfg) * _MAX_STEPS
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


def test_run_mhd_collapsed_automatic_dt_exits_3(tmp_path, capsys, monkeypatch):
    """An automatic dt that collapses during the run (here a CFL bound of
    5e-324 once the state has stepped) is a numerical failure: exit 3 and
    one line on stderr, not a traceback from the landing rule."""
    real = mhd._cfl_limit
    monkeypatch.setattr(mhd, "_cfl_limit",
                        lambda state, w: real(state, w) if state.t == 0 else 5e-324)
    path = write_config(tmp_path, SMALL_MHD)
    assert main(["run-mhd", "--config", path, "--out", str(tmp_path),
                 "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("obmlab: numerical failure: the automatic dt collapsed "
                          "to 4.941e-324 after step 1, at t = ")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


def test_mms_blowup_exits_3(tmp_path, capsys):
    """A reference temperature so low that the forced compressible run
    loses positivity in its first step is a numerical failure with exit 3,
    not a traceback."""
    path = write_config(tmp_path, """\
        [thermo]
        theta_bar = 1e-9
    """)
    assert main(["mms", "--config", path, "--out", str(tmp_path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "obmlab: numerical failure: positivity lost" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_mms_too_many_automatic_steps_exits_2(tmp_path, capsys):
    """A field so strong that the Alfven bound asks more than 2**20 steps of
    a compressible sweep's finest level is a config error found before any
    sweep runs: exit 2 within seconds, no CSV and no traceback."""
    path = write_config(tmp_path, """\
        [thermo]
        b_bar = 1e5
    """)
    start = time.perf_counter()
    assert main(["mms", "--config", path, "--out", str(tmp_path), "--quiet"]) == 2
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert "obmlab: config error: [thermo] eps = 0.5 needs more than 1048576 steps" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


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


@pytest.mark.parametrize("command, section", [("run-obm", "obm"), ("run-mhd", "mhd")])
def test_zero_potential_runs(tmp_path, capsys, command, section):
    """g_profile = zero runs, and the compressible run feels the potential
    through its gravity.  The limit run writes theta1 and b1, whose
    equations do not read G (it enters only the derived density), so [obm]
    has no g_profile key, and setting one exits 2 as unknown."""
    config = SMALL_OBM if section == "obm" else SMALL_MHD
    codes, outs = {}, {}
    for g_profile in ("linear", "zero"):
        body = config.replace(f"[{section}]\n",
                              f"[{section}]\n    g_profile = {g_profile}\n")
        path = write_config(tmp_path, body, name=f"{g_profile}.ini")
        out = tmp_path / g_profile
        codes[g_profile] = main([command, "--config", path, "--out", str(out), "--quiet"])
        outs[g_profile] = ({f.name: f.read_bytes() for f in sorted(out.iterdir())}
                           if out.exists() else None)
    err = capsys.readouterr().err
    if section == "obm":
        assert codes == {"linear": 2, "zero": 2}
        assert err.count("obmlab: config error: unknown key 'g_profile' in [obm]") == 2
        assert outs == {"linear": None, "zero": None}
    else:
        assert codes == {"linear": 0, "zero": 0}
        assert list(outs["zero"]) == list(outs["linear"])
        assert all(outs["zero"][name] != outs["linear"][name] for name in outs["zero"])


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


def test_run_mhd_without_steps_writes_the_initial_state(tmp_path, capsys):
    """With t_end = 0 the march takes no step: exit 0, a CSV of the header
    alone, and one snapshot, 000, of the initial data."""
    path = write_config(tmp_path, SMALL_MHD.replace("t_end = 0.01", "t_end = 0.0"))
    out = tmp_path / "out"
    assert main(["run-mhd", "--config", path, "--out", str(out)]) == 0
    assert "0 steps to t = 0" in capsys.readouterr().out
    assert (out / "run_mhd.csv").read_text() == ",".join(_MHD_HEADER) + "\n"
    assert [f.name for f in out.glob("run_mhd_*.snap")] == ["run_mhd_000.snap"]
    _, fields = read_snapshot(out / "run_mhd_000.snap")
    assert np.all(fields["u1"] == 0.0) and np.all(fields["theta"] > 0.0)


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


def test_run_mhd_positivity_loss_writes_the_last_valid_state(tmp_path, capsys,
                                                            monkeypatch):
    """A run that loses positivity after two good steps exits 3 and leaves
    <prefix>_mhd_fail.snap whole, holding the state after the second step.
    No configuration of the bundled set-up loses positivity in a short run,
    so a source hook chills one node from the third step on."""
    from obmlab import cli
    run_prim = cli.run_prim
    states = []

    def chilled(state, cfg, t_end, on_step, **kwargs):
        def note(new):
            states.append(new)
            on_step(new)

        def chill(_t):
            cold = np.zeros(state.grid.shape)
            if len(states) >= 2:
                cold[4, 5] = -1e4
            return {"theta": cold}

        return run_prim(state, cfg, t_end, on_step=note, src=chill, **kwargs)

    monkeypatch.setattr(cli, "run_prim", chilled)
    # four automatic steps, so the run has not ended before the third
    path = write_config(tmp_path, SMALL_MHD.replace("t_end = 0.01", "t_end = 0.03"))
    out = tmp_path / "out"
    assert main(["run-mhd", "--config", path, "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "positivity lost" in err
    assert len(states) == 2
    grid, fields = read_snapshot(out / "run_mhd_fail.snap")
    assert grid == states[-1].grid
    want = snapshot_fields(states[-1])
    assert list(fields) == list(want)
    for name, arr in want.items():
        assert np.array_equal(fields[name], arr)
    assert not list(out.glob("*.tmp"))


def test_run_mhd_hands_the_initial_state_to_the_march(tmp_path, monkeypatch):
    """Once the march starts, nothing but run_prim holds the initial state:
    after the second step it is gone, with its fields."""
    from obmlab import cli
    run_prim = cli.run_prim
    gone = []

    def watched(state, cfg, t_end, dt, on_step, entropy_fault):
        initial = weakref.ref(state)
        steps = []

        def note(new):
            steps.append(new.t)
            if len(steps) == 2:
                gone.append(initial() is None)
            on_step(new)

        # the wrapper keeps no reference either: no argument tuple, as a
        # call with *args or **kwargs would build and hold
        handed = [state]
        del state
        return run_prim(handed.pop(), cfg, t_end, dt=dt, on_step=note,
                        entropy_fault=entropy_fault)

    monkeypatch.setattr(cli, "run_prim", watched)
    path = write_config(tmp_path, SMALL_MHD)
    assert main(["run-mhd", "--config", path, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0
    assert gone == [True]


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


def test_converge_with_a_failed_mach_number_exits_3(tmp_path, capsys, monkeypatch):
    """A Mach number whose compressible run fails is marked in the CSV and
    the summary, both written, and the command exits 3 naming it; the other
    Mach number completes."""
    from obmlab import relent
    real = relent.run_prim

    def failing(state, cfg, t_end, **kwargs):
        if state.eps == 0.2:
            raise mhd.PositivityError("positivity lost (injected)", last_valid=state)
        return real(state, cfg, t_end, **kwargs)

    monkeypatch.setattr(relent, "run_prim", failing)
    monkeypatch.setattr(relent, "_usable_cpus", lambda: 1)
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
    assert main(["converge", "--config", path, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("obmlab: numerical failure: eps = 0.2: "
                            "PositivityError: positivity lost (injected)\n")
    assert "converge: eps = 0.2, sup_E = " in captured.out
    assert captured.out.count("FAILED") == 2  # its progress line and summary row
    rows = [line.split(",") for line in
            (out / "run_study.csv").read_text().splitlines()[1:]]
    assert [(row[0], row[-1]) for row in rows] == [("0.40000000000000002", "0"),
                                                    ("0.20000000000000001", "1")]
    assert rows[1][4:8] == ["nan"] * 4 and "nan" not in rows[0]
    assert "sup_E strictly decreasing: no" in (out / "run_study.txt").read_text()


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

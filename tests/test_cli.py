"""Runner behaviour: config precedence, deterministic outputs, exit codes,
and the plot-data table transforms."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from socsqueeze.cli import emit_plot_data, main
from socsqueeze.config import load_config
from socsqueeze.errors import ConfigError


def write_config(path, text):
    path.write_text(text)
    return str(path)


SWEEP_INI = """
[run]
command = sweep
backend = ed
seed = 1

[params]
N = 40
delta = 0.0
epsilon = 6.0

[sweep]
axis = omega_R
values = 0.5 1.0 2.0
"""


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_load_config_resolves_defaults(tmp_path):
    cfg_path = write_config(tmp_path / "run.ini", SWEEP_INI)
    cfg = load_config(cfg_path)
    assert cfg.command == "sweep"
    assert cfg.backend == "ed"
    assert cfg.jobs == 1
    assert cfg.params.N == 40
    assert cfg.sweep.name == "omega_R"
    assert cfg.sweep.values == (0.5, 1.0, 2.0)
    resolved = cfg.resolved()
    assert resolved["solver"]["dt"] == 0.01
    assert resolved["params"]["epsilon"] == 6.0
    assert resolved["sweep"] == {"axis": "omega_R", "values": [0.5, 1.0, 2.0]}


def test_axis_range_form(tmp_path):
    ini = """
[run]
command = sweep

[sweep]
axis = delta
min = 0.0
max = 2.0
count = 5
"""
    cfg = load_config(write_config(tmp_path / "r.ini", ini))
    assert cfg.sweep.values == (0.0, 0.5, 1.0, 1.5, 2.0)


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.ini"))
    bad_cmd = "[run]\ncommand = explode\n"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "a.ini", bad_cmd))
    no_run = "[params]\nN = 10\n"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "b.ini", no_run))
    bad_axis = "[run]\ncommand = sweep\n\n[sweep]\naxis = lasers\nvalues = 1 2\n"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "c.ini", bad_axis))
    one_value = "[run]\ncommand = sweep\n\n[sweep]\naxis = delta\nvalues = 1\n"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "d.ini", one_value))


def test_flag_beats_env_beats_file(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path / "run.ini", SWEEP_INI)
    monkeypatch.setenv("SOCSQUEEZE_SEED", "9")
    cfg = load_config(cfg_path)
    assert cfg.seed == 9
    cfg = load_config(cfg_path, overrides={"seed": 3})
    assert cfg.seed == 3
    monkeypatch.setenv("SOCSQUEEZE_BACKEND", "gaussian")
    assert load_config(cfg_path).backend == "gaussian"
    monkeypatch.setenv("SOCSQUEEZE_SEED", "not-an-int")
    with pytest.raises(ConfigError):
        load_config(cfg_path)


def test_config_error_exits_2_and_writes_nothing(tmp_path):
    out = tmp_path / "out"
    bad = write_config(tmp_path / "r.ini",
                       f"[run]\ncommand = explode\nout = {out}\n")
    assert main(["run", "--config", bad]) == 2
    assert not out.exists()


def test_sweep_outputs_and_determinism(tmp_path):
    cfg = write_config(tmp_path / "run.ini", SWEEP_INI)
    outs = [tmp_path / name for name in ("o1", "o2", "o3")]
    assert main(["run", "--config", cfg, "--out", str(outs[0])]) == 0
    assert main(["run", "--config", cfg, "--out", str(outs[1])]) == 0
    assert main(["run", "--config", cfg, "--out", str(outs[2]), "--jobs", "2"]) == 0

    table = read_bytes(outs[0] / "sweep.csv")
    assert table == read_bytes(outs[1] / "sweep.csv")
    assert table == read_bytes(outs[2] / "sweep.csv")
    assert b"\r" not in table
    for name in ("report_000.json", "report_001.json", "report_002.json"):
        assert read_bytes(outs[0] / name) == read_bytes(outs[2] / name)

    header = table.decode().splitlines()[0].split(",")
    assert header == ["omega_R", "xi_x", "xi_dcz_min", "theta_dcz", "xi_uv_min",
                      "theta_uv", "rho_m1", "rho_0", "rho_p1", "status"]
    body = [ln.split(",") for ln in table.decode().splitlines()[1:]]
    assert [r[-1] for r in body] == ["ok", "ok", "ok"]
    xi = [float(r[1]) for r in body]
    assert xi[0] > xi[1] > xi[2]  # stronger drive squeezes harder

    manifest = json.loads(read_bytes(outs[0] / "manifest.json"))
    assert manifest["jobs"] == 1 and manifest["seed"] == 1
    assert json.loads(read_bytes(outs[2] / "manifest.json"))["jobs"] == 2


def test_dispersion_run_and_plot_data(tmp_path):
    out = tmp_path / "disp"
    ini = f"""
[run]
command = dispersion
out = {out}

[params]
omega_R = 2.0
delta = 0.0
epsilon = -2.0

[dispersion]
k_min = -4.0
k_max = 4.0
n_points = 401
"""
    cfg = write_config(tmp_path / "run.ini", ini)
    assert main(["run", "--config", cfg]) == 0
    table = out / "dispersion.csv"
    lines = read_bytes(table).decode().splitlines()
    assert lines[0] == "k,E1,E2,E3"
    assert len(lines) == 402
    minima = json.loads(read_bytes(out / "minima.json"))
    assert minima["n_minima"] == 2
    assert len(minima["k_min"]) == 2

    assert main(["plot-data", str(table)]) == 0
    for name in ("series_band_E1.csv", "series_band_E2.csv", "series_band_E3.csv"):
        series = read_bytes(out / name).decode().splitlines()
        assert len(series) == 402
    # the emitted series reproduce the table columns exactly
    k0, e0 = lines[1].split(",")[:2]
    assert read_bytes(out / "series_band_E1.csv").decode().splitlines()[1] == f"{k0},{e0}"


def test_phase_diagram_run_and_matrix(tmp_path):
    out = tmp_path / "pd"
    ini = f"""
[run]
command = phase-diagram
out = {out}

[params]
omega_R = 2.0

[phase-diagram]
axis1 = delta
min1 = 0.0
max1 = 1.0
count1 = 3
axis2 = epsilon
min2 = 0.0
max2 = 8.0
count2 = 3
n_points = 801
"""
    cfg = write_config(tmp_path / "run.ini", ini)
    assert main(["run", "--config", cfg]) == 0
    lines = read_bytes(out / "phase_diagram.csv").decode().splitlines()
    assert lines[0] == "delta,epsilon,n_minima,degenerate,E_min,k_min"
    assert len(lines) == 10

    assert main(["plot-data", str(out / "phase_diagram.csv")]) == 0
    matrix = read_bytes(out / "matrix_n_minima.csv").decode().splitlines()
    assert len(matrix) == 4
    assert matrix[0].startswith("delta\\epsilon,")
    # delta=0, epsilon=0 keeps three dips (both side wells plus k=0);
    # epsilon=8 pushes the middle branch down to a single minimum
    first = matrix[1].split(",")
    assert first[0] == "0" and first[1] == "3" and first[3] == "1"


def test_phase_diagram_bytes_do_not_depend_on_jobs(tmp_path):
    # 4 x 6 = 24 cells reach a --jobs 2 pool as chunks of 3
    ini = """
[run]
command = phase-diagram

[params]
epsilon = 6.0

[phase-diagram]
axis1 = omega_R
min1 = 0.25
max1 = 5.0
count1 = 4
axis2 = delta
min2 = -4.75
max2 = 4.75
count2 = 6
"""
    cfg = write_config(tmp_path / "run.ini", ini)
    tables = []
    for name, jobs in (("j1a", "1"), ("j2a", "2"), ("j1b", "1"), ("j2b", "2")):
        out = tmp_path / name
        assert main(["run", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
        tables.append(read_bytes(out / "phase_diagram.csv"))
    assert len(tables[0].decode().splitlines()) == 25
    assert all(t == tables[0] for t in tables[1:])


def test_eff_squeeze_report(tmp_path):
    out = tmp_path / "eff"
    ini = f"""
[run]
command = eff-squeeze
backend = ed
out = {out}

[params]
omega_R = 2.0
epsilon = 6.0
N = 50
"""
    cfg = write_config(tmp_path / "run.ini", ini)
    assert main(["run", "--config", cfg]) == 0
    report = json.loads(read_bytes(out / "report.json"))
    assert report["N"] == 50
    assert report["backend"] == "ed"
    assert report["ed_dim"] == 51 * 52 // 2
    assert 0.0 <= report["ed_residual"] <= 1e-10 * max(1.0, abs(report["ground_energy"]))
    assert isinstance(report["ed_iterations"], int) and report["ed_iterations"] > 0
    assert 0.0 < report["xi_x"] < 1.0
    assert main(["run", "--config", cfg, "--backend", "gp"]) == 2


def test_ed_step_cap_exits_3(tmp_path, monkeypatch, capsys):
    from socsqueeze import fockspace

    monkeypatch.setattr(fockspace, "MAX_LANCZOS_STEPS", 2)
    out = tmp_path / "eff"
    cfg = write_config(tmp_path / "run.ini", SWEEP_INI.replace("command = sweep",
                                                               "command = eff-squeeze"))
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "did not converge" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert json.loads(read_bytes(out / "manifest.json"))["command"] == "eff-squeeze"
    assert "ConvergenceError" in json.loads(read_bytes(out / "error.json"))["error"]


def overflow_ed_where_hy_vanishes(monkeypatch):
    """Make every ED solve at hY = 0 (epsilon = -4) assemble the NaN state of
    an overflowed Ritz vector, which the solve must reject."""
    from socsqueeze import fockspace

    solve, ritz_vector = fockspace.ed_ground_state, fockspace._ritz_vector

    def overflowed(apply, v0, s):
        _, psi, _ = ritz_vector(apply, v0, s)
        return math.nan, psi * math.nan, math.nan

    def ed_ground_state(coeffs, n_atoms, **kwargs):
        with monkeypatch.context() as patch:
            if coeffs.hY == 0.0:
                patch.setattr(fockspace, "_ritz_vector", overflowed)
            return solve(coeffs, n_atoms, **kwargs)

    monkeypatch.setattr(fockspace, "ed_ground_state", ed_ground_state)


# ED points where the report cannot be made: at epsilon = -4 the solve is made
# to overflow to a NaN state, and at omega_R = 0, epsilon = 4 the ground space
# is threefold degenerate so <F_Y> vanishes and xi_uv is undefined.  Each exits
# 3 with its error recorded, never with a traceback
ED_FAILURES = [
    ("nan-state", "omega_R = 1.0\nepsilon = -4.0\nN = 10\n", "ConvergenceError"),
    ("degenerate-ground-space", "omega_R = 0.0\nepsilon = 4.0\nN = 200\n",
     "MomentInputError"),
]


@pytest.mark.parametrize("params,error", [case[1:] for case in ED_FAILURES],
                         ids=[case[0] for case in ED_FAILURES])
def test_ed_point_failure_exits_3_with_error_file(tmp_path, capsys, monkeypatch, params, error):
    overflow_ed_where_hy_vanishes(monkeypatch)
    out = tmp_path / "eff"
    cfg = write_config(tmp_path / "run.ini", f"""
[run]
command = eff-squeeze
backend = ed
out = {out}

[params]
delta = 0.0
{params}""")
    assert main(["run", "--config", cfg]) == 3
    assert "eff-squeeze failed" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["error.json", "manifest.json"]
    assert json.loads(read_bytes(out / "error.json"))["error"].startswith(error + ": ")


def test_ed_sweep_keeps_cells_around_a_nan_state(tmp_path, capsys, monkeypatch):
    overflow_ed_where_hy_vanishes(monkeypatch)
    out = tmp_path / "sw"
    cfg = write_config(tmp_path / "run.ini", f"""
[run]
command = sweep
backend = ed
out = {out}

[params]
omega_R = 1.0
N = 10

[sweep]
axis = epsilon
values = 6 -4 -2
""")
    assert main(["run", "--config", cfg]) == 3
    assert "sweep cell 1 failed, solver did not converge" in capsys.readouterr().err
    status = [ln.split(",")[-1] for ln in read_bytes(out / "sweep.csv").decode().splitlines()]
    assert status == ["status", "ok", "failed", "ok"]
    assert list(json.loads(read_bytes(out / "errors.json"))) == ["1"]
    assert (out / "report_000.json").exists() and (out / "report_002.json").exists()


def test_gaussian_eff_squeeze_report(tmp_path, capsys):
    out = tmp_path / "gauss"
    ini = f"""
[run]
command = eff-squeeze
backend = gaussian
out = {out}

[params]
omega_R = 2.0
epsilon = 6.0
N = 200
"""
    cfg = write_config(tmp_path / "run.ini", ini)
    assert main(["run", "--config", cfg]) == 0
    report = json.loads(read_bytes(out / "report.json"))
    assert report["backend"] == "gaussian"
    assert 0.0 <= report["mf_grad_norm"] <= 1e-10
    assert report["mf_degenerate"] is False
    assert 0.0 < report["xi_x"] < 1.0
    # at epsilon = 2 the mean-field minimum empties the central mode: exit 3
    depleted = write_config(tmp_path / "depleted.ini", ini.replace("6.0", "2.0"))
    assert main(["run", "--config", depleted]) == 3
    assert "Holstein-Primakoff expansion does not hold" in capsys.readouterr().err


def test_gp_ground_run(tmp_path):
    out = tmp_path / "gp"
    ini = f"""
[run]
command = gp-ground
out = {out}
seed = 1

[params]
omega_R = 0.0
delta = 0.0
epsilon = 2.0
N = 100

[trap]
omega_x = 150.0
omega_y = 150.0
omega_z = 1500.0
recoil_frequency = 3678.0

[grid]
n_points = 256
extent = 32.0

[solver]
dt = 0.01
tol = 1e-10
"""
    cfg = write_config(tmp_path / "run.ini", ini)
    assert main(["run", "--config", cfg]) == 0
    report = json.loads(read_bytes(out / "report.json"))
    assert report["moment_method"] == "hartree_product"
    assert abs(report["rho_0"] - 1.0) <= 1e-6
    assert 0.0 <= report["gp_last_energy_change"] < 1e-10
    assert 0.0 < report["gp_residual"] <= 1e-4
    assert (out / "field.npz").exists()
    trace = read_bytes(out / "energy_trace.csv").decode().splitlines()
    assert trace[0] == "step,energy"
    assert float(trace[-1].split(",")[1]) < float(trace[1].split(",")[1])
    manifest = json.loads(read_bytes(out / "manifest.json"))
    assert manifest["backend"] == "gp"
    assert manifest["grid"] == {"n_points": [256], "extent": [32.0]}
    assert manifest["trap"]["recoil_frequency"] == 3678.0


def test_gp_ground_needs_grid(tmp_path):
    ini = """
[run]
command = gp-ground

[trap]
omega_x = 150.0
omega_y = 150.0
omega_z = 1500.0
recoil_frequency = 3678.0
"""
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "r.ini", ini))


def test_bad_gp_settings_exit_2_and_write_nothing(tmp_path):
    # run as a child with a timeout: check_every <= 0 once looped forever
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    cases = [("solver", "check_every = 0"), ("solver", "check_every = -2"),
             ("solver", "max_steps = 0"), ("solver", "max_steps = -5"),
             ("solver", "dt = nan"), ("solver", "tol = nan"),
             ("interaction", "n_atoms = nan"), ("interaction", "n_atoms = inf")]
    for i, (section, line) in enumerate(cases):
        out = tmp_path / f"out{i}"
        ini = f"""
[run]
command = gp-ground
out = {out}

[trap]
omega_x = 150.0
omega_y = 150.0
omega_z = 1500.0
recoil_frequency = 3678.0

[grid]
n_points = 64
extent = 24.0

[{section}]
{line}
"""
        cfg = write_config(tmp_path / f"r{i}.ini", ini)
        proc = subprocess.run([sys.executable, "-m", "socsqueeze.cli", "run", "--config", cfg],
                              capture_output=True, text=True, env=env, timeout=30)
        assert proc.returncode == 2, (line, proc.stderr)
        assert "configuration error" in proc.stderr
        assert not out.exists(), line


GP_SECTIONS = """
[trap]
omega_x = 150.0
omega_y = 150.0
omega_z = 1500.0
recoil_frequency = 3678.0

[grid]
n_points = 64
extent = 24.0
"""
PHASE_SECTION = """
[phase-diagram]
axis1 = omega_R
values1 = 1 2
axis2 = delta
values2 = -1 1
"""

# (case, command, config text after [run]'s command and out lines); each is a
# configuration error that must exit 2 before anything is written
MALFORMED = [
    ("sweep-values-word", "sweep", "[sweep]\naxis = delta\nvalues = 1 y\n"),
    ("sweep-values-commas", "sweep", "[sweep]\naxis = delta\nvalues = 1, 2, x\n"),
    ("sweep-values-nan", "sweep", "[sweep]\naxis = delta\nvalues = nan 1\n"),
    ("phase-values1", "phase-diagram", PHASE_SECTION.replace("values1 = 1 2", "values1 = 1 y")),
    ("phase-values2", "phase-diagram", PHASE_SECTION.replace("values2 = -1 1", "values2 = -1 1x")),
    ("grid-n-points-word", "gp-ground", GP_SECTIONS.replace("n_points = 64", "n_points = 64 x")),
    ("grid-n-points-float", "gp-ground", GP_SECTIONS.replace("n_points = 64", "n_points = 64.5")),
    ("grid-extent-word", "gp-ground", GP_SECTIONS.replace("extent = 24.0", "extent = 1 z")),
    ("trap-nan", "gp-ground", GP_SECTIONS.replace("omega_x = 150.0", "omega_x = nan")),
    ("gp-negative-seed", "gp-ground", "seed = -1\n" + GP_SECTIONS),
    ("sweep-negative-seed", "sweep", "seed = -3\n[sweep]\naxis = delta\nvalues = 1 2\n"),
    ("jobs-zero", "sweep", "jobs = 0\n[sweep]\naxis = delta\nvalues = 1 2\n"),
    ("reversed-window", "dispersion", "[dispersion]\nk_min = 2.0\nk_max = -2.0\n"),
    ("phase-same-axes", "phase-diagram", PHASE_SECTION.replace("axis2 = delta", "axis2 = omega_R")),
    ("tol-deg-nan", "phase-diagram", PHASE_SECTION + "tol_deg = nan\n"),
    ("tol-deg-inf", "phase-diagram", PHASE_SECTION + "tol_deg = inf\n"),
    ("tol-deg-zero", "phase-diagram", PHASE_SECTION + "tol_deg = 0\n"),
    ("tol-deg-negative", "phase-diagram", PHASE_SECTION + "tol_deg = -5\n"),
    ("ed-sweep-over-cap", "sweep", "[params]\nN = 400\n[sweep]\naxis = delta\nvalues = 1 2\n"),
    ("ed-eff-squeeze-over-cap", "eff-squeeze", "[params]\nN = 400\n"),
    # the oscillator length of the 150 Hz axis is 7.0, so a half-width of 4 is too small
    ("gp-small-box", "gp-ground", GP_SECTIONS.replace("extent = 24.0", "extent = 4.0")),
    ("gp-sweep-small-box", "sweep", "backend = gp\n[sweep]\naxis = delta\nvalues = 1 2\n"
     + GP_SECTIONS.replace("extent = 24.0", "extent = 4.0")),
    ("gp-interaction-no-trap", "gp-ground", "[grid]\nn_points = 64\nextent = 24.0\n"
     "[interaction]\nn_atoms = 100\n"),
    ("gp-sweep-interaction-no-trap", "sweep", "backend = gp\n[sweep]\naxis = delta\n"
     "values = 1 2\n[grid]\nn_points = 64\nextent = 24.0\n[interaction]\nn_atoms = 100\n"),
    ("eff-squeeze-gp", "eff-squeeze", "backend = gp\n" + GP_SECTIONS),
]


@pytest.mark.parametrize("command,body", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_config_exits_2_and_writes_nothing(tmp_path, capsys, command, body):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini",
                       f"[run]\ncommand = {command}\nout = {out}\n{body}")
    assert main(["run", "--config", cfg]) == 2
    assert not out.exists()
    assert "configuration error" in capsys.readouterr().err


def test_pool_has_at_most_one_worker_per_task(tmp_path, monkeypatch):
    # records the pool size and runs the tasks inline: no process is started.
    # cli._map_ordered looks the pool class up in concurrent.futures when it
    # starts a pool
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfg = write_config(tmp_path / "run.ini", SWEEP_INI)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--jobs", "5000"]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--jobs", "2"]) == 0
    assert sizes == [3, 2]
    assert read_bytes(tmp_path / "a" / "sweep.csv") == read_bytes(tmp_path / "b" / "sweep.csv")


def test_gp_nonconvergence_exits_3_with_error_file(tmp_path, capsys):
    out = tmp_path / "gp"
    ini = f"""
[run]
command = gp-ground
out = {out}

[params]
omega_R = 1.0
epsilon = 1.0

[trap]
omega_x = 150.0
omega_y = 150.0
omega_z = 1500.0
recoil_frequency = 3678.0

[grid]
n_points = 128
extent = 24.0

[solver]
tol = 1e-16
max_steps = 5
"""
    cfg = write_config(tmp_path / "run.ini", ini)
    assert main(["run", "--config", cfg]) == 3
    # every nonzero exit reports its detail on stderr, not just in files
    assert "did not converge" in capsys.readouterr().err
    error = json.loads(read_bytes(out / "error.json"))
    assert "ConvergenceError" in error["error"]
    assert (out / "manifest.json").exists()
    assert not (out / "report.json").exists()


def test_sweep_failed_cell_keeps_siblings(tmp_path, capsys):
    # max_steps sits between the two convergence iteration counts (9 and 19),
    # so the second cell fails while the first completes
    out = tmp_path / "sw"
    ini = f"""
[run]
command = sweep
backend = gp
out = {out}

[params]
omega_R = 1.0
epsilon = 1.0

[sweep]
axis = omega_R
values = 0.25 8.0

[trap]
omega_x = 150.0
omega_y = 150.0
omega_z = 1500.0
recoil_frequency = 3678.0

[grid]
n_points = 128
extent = 24.0

[solver]
tol = 1e-10
max_steps = 14
"""
    cfg = write_config(tmp_path / "run.ini", ini)
    assert main(["run", "--config", cfg]) == 3
    assert "sweep cell 1 failed" in capsys.readouterr().err
    lines = read_bytes(out / "sweep.csv").decode().splitlines()
    assert len(lines) == 3
    assert lines[1].endswith("ok") and lines[1].startswith("0.25")
    assert lines[2].endswith("failed") and "nan" in lines[2]
    assert (out / "report_000.json").exists()
    assert not (out / "report_001.json").exists()
    errors = json.loads(read_bytes(out / "errors.json"))
    assert list(errors) == ["1"] and "ConvergenceError" in errors["1"]


def test_plot_data_error_codes(tmp_path):
    assert main(["plot-data", str(tmp_path / "nope.csv")]) == 4
    weird = tmp_path / "weird.csv"
    weird.write_text("a,b\n1,2\n")
    assert main(["plot-data", str(weird)]) == 2
    with pytest.raises(OSError):
        emit_plot_data(str(tmp_path / "nope.csv"))


def test_sweep_series_extraction(tmp_path):
    cfg = write_config(tmp_path / "run.ini", SWEEP_INI)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["plot-data", str(out / "sweep.csv")]) == 0
    series = read_bytes(out / "series_xi_x.csv").decode().splitlines()
    assert series[0] == "omega_R,xi_x"
    assert len(series) == 4
    values = np.array([ln.split(",") for ln in series[1:]], dtype=float)
    assert np.all(np.diff(values[:, 1]) < 0.0)
    assert not (out / "series_status.csv").exists()


def test_package_and_cli_import_without_scipy(tmp_path):
    # no path of the package loads scipy: not at startup, not for a Gaussian
    # solve, not for an ED report, not for an ED sweep in a --jobs 2 pool.
    # Each layer loads on first use, and the CLI fixes the BLAS thread count
    # before numpy loads unless the environment already sets one
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    submodules = tuple(f"socsqueeze.{name[:-3]}"
                       for name in os.listdir(os.path.join(src, "socsqueeze"))
                       if name.endswith(".py") and name != "__init__.py")
    cfg = write_config(tmp_path / "sweep.ini", SWEEP_INI)
    eff = write_config(tmp_path / "eff.ini", SWEEP_INI.replace("command = sweep",
                                                               "command = eff-squeeze"))
    run = "from socsqueeze.cli import main; assert main({!r}) == 0"
    solvers = ("socsqueeze.bands", "socsqueeze.gp", "socsqueeze.fockspace",
               "socsqueeze.gaussian", "concurrent.futures.process")
    # (setup, thread variables set before it, modules it must not load besides
    # scipy, OPENBLAS_NUM_THREADS after it)
    setups = (
        ("import socsqueeze", {}, ("numpy",) + submodules, None),
        ("import socsqueeze.cli", {}, solvers, "1"),
        ("import socsqueeze.cli", {"OPENBLAS_NUM_THREADS": "3"}, (), "3"),
        ("import socsqueeze.cli", {"OMP_NUM_THREADS": "2"}, (), None),
        ("import socsqueeze.gaussian as g; from socsqueeze.params import "
         "ModelParams, effective_coefficients; "
         "g.solve_gaussian(effective_coefficients(ModelParams(2.0, 0.0, 6.0, 200)), 200)",
         {}, (), None),
        (run.format(["run", "--config", eff, "--out", str(tmp_path / "eff")]),
         {}, ("socsqueeze.gp", "socsqueeze.bands"), "1"),
        (run.format(["run", "--config", cfg, "--out", str(tmp_path / "sweep"),
                     "--jobs", "2"]), {}, (), "1"),
    )
    # the pool's workers are other processes: a scipy that fails on import,
    # first on the path, makes any import of it there fail the sweep
    blocked = tmp_path / "blocked" / "scipy"
    blocked.mkdir(parents=True)
    (blocked / "__init__.py").write_text("raise ImportError('scipy is blocked')\n")
    base_env = {k: v for k, v in os.environ.items()
                if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    for i, (setup, threads, absent, blas_threads) in enumerate(setups):
        path = [str(blocked.parent), src] if i == len(setups) - 1 else [src]
        env = {**base_env, **threads, "PYTHONPATH": os.pathsep.join(path)}
        code = (f"import sys, os, json; {setup}; "
                "print(json.dumps([sorted(sys.modules), os.environ.get('OPENBLAS_NUM_THREADS')]))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        modules, openblas = json.loads(proc.stdout.splitlines()[-1])
        loaded = [m for m in modules
                  if any(m == name or m.startswith(name + ".") for name in ("scipy",) + absent)]
        assert loaded == [], setup
        assert openblas == blas_threads, setup
    body = read_bytes(tmp_path / "sweep" / "sweep.csv").decode().splitlines()[1:]
    assert [ln.split(",")[-1] for ln in body] == ["ok", "ok", "ok"]


def test_every_public_name_resolves_to_its_module_object():
    import importlib

    import socsqueeze

    for name in socsqueeze.__all__:
        module = importlib.import_module(f"socsqueeze.{socsqueeze._LAZY[name]}")
        assert getattr(socsqueeze, name) is getattr(module, name), name


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "disp"
    ini = f"""
[run]
command = dispersion
out = {out}

[params]
omega_R = 1.0

[dispersion]
n_points = 101
"""
    cfg = write_config(tmp_path / "run.ini", ini)
    proc = subprocess.run(["socsqueeze", "run", "--config", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "dispersion.csv").exists()
    proc = subprocess.run(["socsqueeze", "run", "--config", str(tmp_path / "nope.ini")],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr

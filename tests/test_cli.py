"""Runner behaviour: config precedence and unread keys, deterministic
outputs, exit codes, and the plot-data table transforms."""

import contextlib
import glob
import json
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import socsqueeze.cli as cli
from socsqueeze import bands
from socsqueeze.bands import classify
from socsqueeze.cli import emit_plot_data, main
from socsqueeze.config import COMMANDS, load_config
from socsqueeze.errors import ConfigError
from socsqueeze.params import ModelParams


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


def test_flag_beats_file(tmp_path, monkeypatch):
    # the settings have no environment layer: the variables change nothing
    cfg_path = write_config(tmp_path / "run.ini", SWEEP_INI)
    monkeypatch.setenv("SOCSQUEEZE_SEED", "9")
    monkeypatch.setenv("SOCSQUEEZE_BACKEND", "gaussian")
    cfg = load_config(cfg_path)
    assert (cfg.seed, cfg.backend) == (1, "ed")
    cfg = load_config(cfg_path, overrides={"seed": 3, "backend": None})
    assert (cfg.seed, cfg.backend) == (3, "ed")


def test_flag_does_not_hide_a_bad_file_value(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini",
                       SWEEP_INI.replace("seed = 1", f"seed = x\nout = {out}"))
    assert main(["run", "--config", cfg, "--seed", "3"]) == 2
    assert not out.exists()
    assert "bad value for [run] seed: 'x'" in capsys.readouterr().err


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.ini"))
                         + glob.glob(os.path.join(ROOT, "perfbench", "configs", "*.ini")))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS,
                         ids=[os.path.relpath(path, ROOT) for path in SHIPPED_CONFIGS])
def test_shipped_config_loads(path):
    # users and the benchmark run these files: a new config rule must accept them
    assert load_config(path).command in COMMANDS


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

[dispersion]
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


def scanned_grid_points(window, n_points):
    """The grid points bands scans for seeds: those with |k| <= 2 + 2 dk."""
    k = np.linspace(window[0], window[1], n_points)
    return int(np.count_nonzero(np.abs(k) <= 2.0 + 2.0 * (k[1] - k[0])))


def test_phase_diagram_bytes_do_not_depend_on_jobs(tmp_path, monkeypatch):
    # 7 x 8 = 56 cells on the default 2001-point grid, of which bands scans
    # 1005 points, in blocks of 32 cells; patched to blocks of 16: at --jobs 2
    # this process and one forked child take 28 contiguous cells each, and at
    # --jobs 3 the shares are 19, 19 and 18
    ini = """
[run]
command = phase-diagram

[params]
epsilon = 6.0

[phase-diagram]
axis1 = omega_R
min1 = 0.25
max1 = 5.0
count1 = 7
axis2 = delta
min2 = -4.75
max2 = 4.75
count2 = 8
"""
    cfg = write_config(tmp_path / "run.ini", ini)
    scanned = scanned_grid_points((-4.0, 4.0), 2001)
    assert scanned == 1005 and bands._BLOCK_GRID_POINTS // scanned == 32
    monkeypatch.setattr(bands, "_BLOCK_GRID_POINTS", 16 * scanned)
    tables = []
    for name, jobs in (("j1a", "1"), ("j2a", "2"), ("j1b", "1"), ("j2b", "2"), ("j3", "3")):
        out = tmp_path / name
        assert main(["run", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
        tables.append(read_bytes(out / "phase_diagram.csv"))
    assert len(tables[0].decode().splitlines()) == 57
    assert all(t == tables[0] for t in tables[1:])


def test_phase_diagram_failed_cell_keeps_its_block(tmp_path, monkeypatch, capsys):
    # blocks of 5 cells (bands scans the 103 points of [1, 2.02]): at --jobs 1
    # cell 4 fails at the end of block 0 and cells 5-7 open block 1; at
    # --jobs 2 cell 5 ends this process's share of 6 cells, alone in its
    # block, and cells 6-7 open the child's share.  With epsilon = 6 the
    # single minimum near k = 0 lies outside the window [1, 3], which holds
    # the k = 2 well of epsilon = -6 and -4
    scanned = scanned_grid_points((1.0, 3.0), 201)
    assert scanned == 103
    monkeypatch.setattr(bands, "_BLOCK_GRID_POINTS", 5 * scanned)
    ini = """
[run]
command = phase-diagram

[params]
omega_R = 2.0

[phase-diagram]
axis1 = epsilon
values1 = -6 6 -4
axis2 = delta
values2 = 0 1 2 3

[dispersion]
k_min = 1.0
k_max = 3.0
n_points = 201
"""
    cfg = write_config(tmp_path / "run.ini", ini)
    outs = [tmp_path / "j1", tmp_path / "j2"]
    for out, jobs in zip(outs, ("1", "2")):
        assert main(["run", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 3
        err = capsys.readouterr().err
        for i in range(4, 8):
            assert (f"phase-diagram cell {i} failed: ConvergenceError: no interior minima "
                    "found; widen the momentum window") in err
        assert err.count("failed") == 4
    for name in ("phase_diagram.csv", "errors.json"):
        assert read_bytes(outs[0] / name) == read_bytes(outs[1] / name)
    assert sorted(json.loads(read_bytes(outs[0] / "errors.json")), key=int) == [
        "4", "5", "6", "7"]
    rows = [ln.split(",") for ln in read_bytes(outs[0] / "phase_diagram.csv").decode()
            .splitlines()[1:]]
    assert len(rows) == 12
    for i, row in enumerate(rows):
        if 4 <= i < 8:
            assert row[2:] == ["0", "0", "nan", "nan"]
            continue
        cell = classify(ModelParams(omega_R=2.0, delta=float(row[1]), epsilon=float(row[0])),
                        window=(1.0, 3.0), n_points=201)
        assert (int(row[2]), int(row[3]), float(row[4]), float(row[5])) == (
            cell.n_minima, int(cell.degenerate), cell.E_min, cell.k_min)


def test_phase_diagram_failed_cells_keep_siblings(tmp_path, capsys):
    # the window [1, 3] holds the k = 2 well of epsilon = -6, but the single
    # minimum of epsilon = 6 sits near k = 0, outside it
    ini = """
[run]
command = phase-diagram

[params]
omega_R = 2.0

[phase-diagram]
axis1 = epsilon
values1 = -6 6
axis2 = delta
values2 = 0 3

[dispersion]
k_min = 1.0
k_max = 3.0
n_points = 201
"""
    cfg = write_config(tmp_path / "run.ini", ini)
    outs = [tmp_path / "j1", tmp_path / "j2"]
    for out, jobs in zip(outs, ("1", "2")):
        assert main(["run", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 3
        err = capsys.readouterr().err
        assert ("phase-diagram cell 2 failed: ConvergenceError: no interior minima found; "
                "widen the momentum window") in err
        assert "phase-diagram cell 1 failed" not in err
    for name in ("phase_diagram.csv", "errors.json"):
        assert read_bytes(outs[0] / name) == read_bytes(outs[1] / name)
    manifests = [json.loads(read_bytes(out / "manifest.json")) for out in outs]
    for manifest in manifests:
        del manifest["jobs"], manifest["out"]
    assert manifests[0] == manifests[1]
    lines = read_bytes(outs[0] / "phase_diagram.csv").decode().splitlines()
    assert lines[0] == "epsilon,delta,n_minima,degenerate,E_min,k_min"
    assert [ln.split(",")[2] for ln in lines[1:3]] == ["1", "1"]
    assert lines[3:] == ["6,0,0,0,nan,nan", "6,3,0,0,nan,nan"]
    errors = json.loads(read_bytes(outs[0] / "errors.json"))
    assert sorted(errors) == ["2", "3"]
    assert all(e.startswith("ConvergenceError: no interior minima") for e in errors.values())
    assert main(["plot-data", str(outs[0] / "phase_diagram.csv")]) == 0


def test_band_scan_overflow_exits_3_and_names_it(tmp_path, capsys):
    # delta = 1e300 squares past float64 in the band scan: a dispersion run
    # writes error.json beside the manifest, and a phase diagram fails those
    # cells and keeps the others, both with exit 3 and without a RuntimeWarning
    reason = ("ConvergenceError: the band scan overflows float64; the Hamiltonian entries "
              "are too large")
    out = tmp_path / "disp"
    cfg = write_config(tmp_path / "disp.ini", "[run]\ncommand = dispersion\n"
                                              "[params]\ndelta = 1e300\n")
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"dispersion failed: {reason}\n"
    assert sorted(os.listdir(out)) == ["error.json", "manifest.json"]
    assert json.loads(read_bytes(out / "error.json")) == {"error": reason}

    out = tmp_path / "pd"
    cfg = write_config(tmp_path / "pd.ini", """
[run]
command = phase-diagram

[params]
epsilon = 6.0

[phase-diagram]
axis1 = omega_R
values1 = 1 2
axis2 = delta
values2 = 0 1e300
""")
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "".join(
        f"phase-diagram cell {i} failed: {reason}\n" for i in (1, 3))
    assert json.loads(read_bytes(out / "errors.json")) == {"1": reason, "3": reason}
    rows = read_bytes(out / "phase_diagram.csv").decode().splitlines()[1:]
    assert [row.split(",")[2:] for row in rows[1::2]] == [["0", "0", "nan", "nan"]] * 2
    for row in rows[::2]:
        omega_r, delta, n_minima = (float(v) for v in row.split(",")[:3])
        assert n_minima == classify(ModelParams(omega_R=omega_r, delta=delta,
                                                epsilon=6.0)).n_minima


def test_ed_and_gaussian_overflow_exit_3_and_name_it(tmp_path, capsys):
    # omega_R = 1e200 and 1e300 square past float64 in the Lanczos recurrence
    # and in the mean-field gradient norm: those sweep cells fail with the
    # overflow named, the first is kept, and no RuntimeWarning is raised
    reasons = {
        "ed": "ConvergenceError: the Lanczos recurrence overflows float64; the "
              "Hamiltonian entries are too large",
        "gaussian": "ConvergenceError: the mean-field gradient norm overflows float64; "
                    "the Hamiltonian coefficients are too large",
    }
    for backend, reason in reasons.items():
        out = tmp_path / backend
        cfg = write_config(tmp_path / f"{backend}.ini", SWEEP_INI.replace(
            "values = 0.5 1.0 2.0", "values = 2.0 1e200 1e300"))
        assert main(["run", "--config", cfg, "--out", str(out), "--backend", backend]) == 3
        assert capsys.readouterr().err == "".join(
            f"sweep cell {i} failed: {reason}\n" for i in (1, 2))
        assert json.loads(read_bytes(out / "errors.json")) == {"1": reason, "2": reason}
        rows = read_bytes(out / "sweep.csv").decode().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["ok", "failed", "failed"]


def test_float_maximum_exits_3_and_names_it(tmp_path, capsys):
    # fields at the float64 maximum: the Gaussian expansion's squared mode
    # frequencies or its mean-field matrix, and the ED Hamiltonian's entries,
    # overflow; each run exits 3 with the overflow named in error.json, and no
    # RuntimeWarning is raised on the way
    cases = [("gaussian", "epsilon = 1.7e308", "the squared mode frequencies overflow"),
             ("gaussian", "delta = 1.7e308\nepsilon = -1.7e308",
              "the mean-field matrix overflows"),
             ("ed", "omega_R = 1.7e308\nepsilon = 1.7e308", "the Hamiltonian entries overflow")]
    for i, (backend, fields, what) in enumerate(cases):
        out = tmp_path / f"case{i}"
        cfg = write_config(tmp_path / f"case{i}.ini", f"""
[run]
command = eff-squeeze
backend = {backend}

[params]
N = 40
{fields}
""")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        reason = (f"ConvergenceError: {what} float64; the Hamiltonian coefficients "
                  "are too large")
        assert capsys.readouterr().err == f"eff-squeeze failed: {reason}\n"
        assert json.loads(read_bytes(out / "error.json")) == {"error": reason}


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
    # at omega_R = 0 the start is an exact eigenvector and the solve ends at step 1
    ini = SWEEP_INI.replace("command = sweep", "command = eff-squeeze")
    cfg = write_config(tmp_path / "run.ini", ini.replace("[params]\n", "[params]\nomega_R = 2.0\n"))
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert ("eff-squeeze failed: ConvergenceError: Lanczos did not converge in 2 steps"
            in capsys.readouterr().err)
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
    assert ("sweep cell 1 failed: ConvergenceError: eigenpair residual nan exceeds tolerance"
            in capsys.readouterr().err)
    status = [ln.split(",")[-1] for ln in read_bytes(out / "sweep.csv").decode().splitlines()]
    assert status == ["status", "ok", "failed", "ok"]
    assert list(json.loads(read_bytes(out / "errors.json"))) == ["1"]
    assert (out / "report_000.json").exists() and (out / "report_002.json").exists()


def test_gaussian_sweep_keeps_cells_around_an_unstable_expansion(tmp_path, capsys, monkeypatch):
    # an expansion with a non-positive normal mode is a cell failure like a
    # non-convergence: exit 3 with the error recorded, never a traceback
    from socsqueeze import gaussian
    from socsqueeze.errors import UnstableExpansionError

    quadratic, calls = gaussian.hp_quadratic, []

    def unstable_in_cell_1(coeffs, n_atoms, mean_field):
        calls.append(coeffs)
        if len(calls) == 2:
            raise UnstableExpansionError("quadratic form not positive definite", frequency=0.0)
        return quadratic(coeffs, n_atoms, mean_field)

    monkeypatch.setattr(gaussian, "hp_quadratic", unstable_in_cell_1)
    out = tmp_path / "sw"
    ini = SWEEP_INI.replace("backend = ed", "backend = gaussian").replace("N = 40", "N = 200")
    cfg = write_config(tmp_path / "run.ini", ini.replace("0.5 1.0 2.0", "1.0 2.0"))
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "sweep cell 1 failed: UnstableExpansionError" in err
    assert "Traceback" not in err
    assert len(calls) == 2
    errors = json.loads(read_bytes(out / "errors.json"))
    assert list(errors) == ["1"] and errors["1"].startswith("UnstableExpansionError: ")
    assert (out / "report_000.json").exists()
    assert not (out / "report_001.json").exists()


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
    # at epsilon = 2 the mean field leaves almost no atoms in the central mode;
    # the expansion about the condensate mode still holds: exit 0, and the
    # report shows the depletion
    depleted = write_config(tmp_path / "depleted.ini", ini.replace("6.0", "2.0"))
    assert main(["run", "--config", depleted]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(read_bytes(out / "report.json"))
    assert report["rho_0"] < 0.05 and report["mf_grad_norm"] <= 1e-10
    assert report["mf_degenerate"] is True  # one of the mirror pair at delta = 0
    # at omega_R = 1, epsilon = -3e7 the central mode holds about 1e-16 of the
    # atoms, which the earlier chart lost to roundoff and refused (exit 3)
    (out / "report.json").unlink()
    empty = write_config(tmp_path / "empty.ini",
                         ini.replace("omega_R = 2.0", "omega_R = 1.0").replace("6.0", "-3e7"))
    assert main(["run", "--config", empty]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(read_bytes(out / "report.json"))
    assert report["rho_0"] < 1e-12 and report["mf_degenerate"] is True


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
    # the seed's momentum is the grid's band minimum, here the m = 0 parabola's vertex
    assert report["gp_seed_k"] == classify(ModelParams(0.0, 0.0, 2.0, 100)).k_min == 0.0
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


def test_bad_gp_settings_exit_2_and_write_nothing(tmp_path, capsys):
    # check_every <= 0 once looped forever: its first case runs as a child with
    # a timeout, the others in process
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
        if i == 0:
            proc = subprocess.run([sys.executable, "-m", "socsqueeze.cli", "run", "--config", cfg],
                                  capture_output=True, text=True, env=env, timeout=30)
            code, err = proc.returncode, proc.stderr
        else:
            code = main(["run", "--config", cfg])
            err = capsys.readouterr().err
        assert code == 2, (line, err)
        assert "configuration error" in err
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
    ("phase-values1-nan", "phase-diagram",
     PHASE_SECTION.replace("values1 = 1 2", "values1 = nan 1")),
    ("phase-values2-inf", "phase-diagram",
     PHASE_SECTION.replace("values2 = -1 1", "values2 = -1 inf")),
    ("sweep-range-inf", "sweep", "[sweep]\naxis = delta\nmin = 0\nmax = inf\ncount = 3\n"),
    ("grid-n-points-word", "gp-ground", GP_SECTIONS.replace("n_points = 64", "n_points = 64 x")),
    ("grid-n-points-float", "gp-ground", GP_SECTIONS.replace("n_points = 64", "n_points = 64.5")),
    ("grid-extent-word", "gp-ground", GP_SECTIONS.replace("extent = 24.0", "extent = 1 z")),
    # the square of a position past sqrt(float max) = 1.34e154 is not finite
    ("grid-extent-square-overflows", "gp-ground", "[grid]\nn_points = 64\nextent = 1e300\n"),
    ("grid-extent-square-overflows-trap", "gp-ground",
     GP_SECTIONS.replace("extent = 24.0", "extent = 1e200")),
    ("trap-nan", "gp-ground", GP_SECTIONS.replace("omega_x = 150.0", "omega_x = nan")),
    ("gp-negative-seed", "gp-ground", "seed = -1\n" + GP_SECTIONS),
    ("sweep-negative-seed", "sweep", "seed = -3\n[sweep]\naxis = delta\nvalues = 1 2\n"),
    ("jobs-zero", "sweep", "jobs = 0\n[sweep]\naxis = delta\nvalues = 1 2\n"),
    ("reversed-window", "dispersion", "[dispersion]\nk_min = 2.0\nk_max = -2.0\n"),
    ("infinite-k-min", "dispersion", "[dispersion]\nk_min = -inf\n"),
    ("infinite-k-max", "dispersion", "[dispersion]\nk_max = inf\n"),
    ("phase-infinite-k-min", "phase-diagram", PHASE_SECTION + "[dispersion]\nk_min = -inf\n"),
    ("phase-reversed-window", "phase-diagram",
     PHASE_SECTION + "[dispersion]\nk_min = 2.0\nk_max = -2.0\n"),
    ("phase-two-points", "phase-diagram", PHASE_SECTION + "[dispersion]\nn_points = 2\n"),
    ("duplicate-key", "sweep", "[params]\nN = 40\nN = 41\n[sweep]\naxis = delta\nvalues = 1 2\n"),
    ("duplicate-section", "sweep", "[sweep]\naxis = delta\nvalues = 1 2\n[sweep]\naxis = delta\n"),
    ("lone-percent", "sweep", "[sweep]\naxis = delta\nvalues = 1 2%\n"),
    ("solver-fractional-max-steps", "gp-ground", GP_SECTIONS + "[solver]\nmax_steps = 2.5\n"),
    ("phase-same-axes", "phase-diagram", PHASE_SECTION.replace("axis2 = delta", "axis2 = omega_R")),
    ("tol-deg-nan", "phase-diagram", PHASE_SECTION + "tol_deg = nan\n"),
    ("tol-deg-inf", "phase-diagram", PHASE_SECTION + "tol_deg = inf\n"),
    ("tol-deg-zero", "phase-diagram", PHASE_SECTION + "tol_deg = 0\n"),
    ("tol-deg-negative", "phase-diagram", PHASE_SECTION + "tol_deg = -5\n"),
    # two band minima differ in energy by at most 16
    ("tol-deg-above-gap-bound", "phase-diagram", PHASE_SECTION + "tol_deg = 16.000001\n"),
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
    ("trap-missing-key", "gp-ground", GP_SECTIONS.replace("omega_y = 150.0\n", "")),
    ("sweep-count-one", "sweep", "[sweep]\naxis = delta\nmin = 0\nmax = 1\ncount = 1\n"),
    ("unknown-backend", "eff-squeeze", "backend = quantum\n"),
    ("phase-without-section", "phase-diagram", ""),
    ("sweep-without-section", "sweep", ""),
    # a key that nothing reads: a typo, a misspelled section, the window keys of
    # [phase-diagram] (the window's one home is [dispersion]), range keys next
    # to values, and any [DEFAULT] key
    ("unread-key", "dispersion", "[params]\nomega = 2.0\n"),
    ("unread-section", "dispersion", "[param]\ndelta = 1.0\n"),
    ("unread-phase-window", "phase-diagram", PHASE_SECTION + "k_min = -3\n"),
    ("unread-range-beside-values", "sweep", "[sweep]\naxis = delta\nvalues = 1 2\nmin = 0\n"),
    ("unread-default-section", "dispersion", "[DEFAULT]\ndelta = 1.0\n"),
]
# the stderr of the rows above whose rule no other row reaches, and of a
# bad value of a key that two sections share
MALFORMED_MESSAGES = {
    "tol-deg-above-gap-bound": "tol_deg must be in (0, 16], got 16.000001",
    "trap-missing-key": "missing required config key [trap] omega_y",
    "grid-n-points-word": "bad value for [grid] n_points: '64 x'",
    "sweep-count-one": "axis count must be >= 2, got 1",
    "unknown-backend": "unknown backend 'quantum'",
    "phase-without-section": "phase-diagram needs [phase-diagram] axis1/axis2",
    "sweep-without-section": "sweep needs a [sweep] section",
    "unread-key": "nothing reads: [params] omega",
    "unread-section": "nothing reads: [param] delta",
    "unread-phase-window": "nothing reads: [phase-diagram] k_min",
    "unread-range-beside-values": "nothing reads: [sweep] min",
    "unread-default-section": "nothing reads: [DEFAULT] delta",
}


@pytest.mark.parametrize("case,command,body", MALFORMED, ids=[case[0] for case in MALFORMED])
def test_malformed_config_exits_2_and_writes_nothing(tmp_path, capsys, case, command, body):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini",
                       f"[run]\ncommand = {command}\nout = {out}\n{body}")
    assert main(["run", "--config", cfg]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert MALFORMED_MESSAGES.get(case, "") in err


def test_tol_deg_may_reach_the_gap_bound(tmp_path):
    # 16 is the largest energy gap two band minima can have, so it is the
    # largest tolerance that still means something, and it is accepted
    cfg = write_config(tmp_path / "run.ini", "[run]\ncommand = phase-diagram\n"
                       + PHASE_SECTION + "tol_deg = 16\n")
    assert load_config(cfg).tol_deg == 16.0


def test_unwritable_out_exits_4_before_any_cell_runs(tmp_path, monkeypatch, capsys):
    # load_config has raised every configuration error, so run makes the
    # output directory before it computes anything
    def no_cell(task):
        raise AssertionError("a cell ran before the output directory was made")

    monkeypatch.setattr(cli, "_sweep_cell", no_cell)
    blocker = tmp_path / "out"
    blocker.write_text("a file\n")
    cfg = write_config(tmp_path / "run.ini", SWEEP_INI)
    assert main(["run", "--config", cfg, "--out", str(blocker)]) == 4
    assert "i/o error" in capsys.readouterr().err
    assert blocker.read_text() == "a file\n"


def test_config_without_section_header_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", f"command = sweep\nout = {out}\n" + SWEEP_INI)
    assert main(["run", "--config", cfg]) == 2
    assert not out.exists()
    assert "configuration error" in capsys.readouterr().err


def test_jobs_fork_at_most_one_child_per_task(tmp_path, monkeypatch):
    # the parent computes one share of the tasks and forks one child for each
    # other share, so 3 cells take 2 children however many jobs are asked for
    real_fork = os.fork
    forks = []

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    cfg = write_config(tmp_path / "run.ini", SWEEP_INI)
    counts, tables = [], []
    for name, jobs in (("a", "5000"), ("b", "2"), ("c", "1")):
        before = len(forks)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / name), "--jobs", jobs]) == 0
        counts.append(len(forks) - before)
        tables.append(read_bytes(tmp_path / name / "sweep.csv"))
    assert counts == [2, 1, 0]
    assert tables[0] == tables[1] == tables[2]
    assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in this process if the block runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def in_children_only(action):
    """A task worker that returns (index, index) in this process and runs
    action in a forked child."""
    parent = os.getpid()

    def worker(task):
        if os.getpid() != parent:
            action()
        return task[0], task[0]

    return worker


class TwoArgumentError(Exception):
    # pickles, but its one-message args cannot rebuild it
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def raise_key_error():
    raise KeyError("lost in a child")


def raise_two_argument_error():
    raise TwoArgumentError(1, 2)


def test_fork_path_results_come_back_in_task_order():
    tasks = [(i,) for i in range(7)]
    with time_limit(30):
        assert cli._map_ordered(in_children_only(lambda: None), tasks, 3) == list(range(7))
    assert_no_child_left()


def test_child_exception_is_raised_in_the_parent():
    with time_limit(30), pytest.raises(KeyError, match="lost in a child") as info:
        cli._map_ordered(in_children_only(raise_key_error), [(i,) for i in range(4)], 2)
    # the child's traceback rides along as the cause
    assert "raise_key_error" in str(info.value.__cause__)
    assert_no_child_left()


def test_child_exception_that_cannot_be_unpickled_becomes_runtime_error():
    with time_limit(30), pytest.raises(RuntimeError, match="TwoArgumentError: 1 and 2"):
        cli._map_ordered(in_children_only(raise_two_argument_error),
                         [(i,) for i in range(4)], 2)
    assert_no_child_left()


def test_child_that_dies_without_result_names_its_exit_status():
    with time_limit(30), pytest.raises(RuntimeError, match=r"without a result \(exit status 1\)"):
        cli._map_ordered(in_children_only(lambda: os._exit(1)), [(i,) for i in range(4)], 2)
    assert_no_child_left()


def test_parent_failure_kills_and_reaps_running_children():
    parent = os.getpid()

    def worker(task):
        if os.getpid() != parent:
            time.sleep(60)
        raise ValueError("the parent's share failed")

    start = time.perf_counter()
    with time_limit(30), pytest.raises(ValueError, match="the parent's share failed"):
        cli._map_ordered(worker, [(i,) for i in range(3)], 3)
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def test_jobs_above_1_without_fork_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.ini", SWEEP_INI)
    assert main(["run", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "configuration error" in err and "os.fork" in err
    # one process needs no fork
    assert main(["run", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
    assert_no_child_left()


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
    assert ("gp-ground failed: ConvergenceError: no convergence within 5 steps"
            in capsys.readouterr().err)
    error = json.loads(read_bytes(out / "error.json"))
    assert "ConvergenceError" in error["error"]
    assert (out / "manifest.json").exists()
    assert not (out / "report.json").exists()


def test_sweep_failed_cell_keeps_siblings(tmp_path, capsys):
    # max_steps sits between the two convergence iteration counts (8 and 10),
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
max_steps = 9
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


def test_plot_data_error_codes(tmp_path, capsys):
    assert main(["plot-data", str(tmp_path / "nope.csv")]) == 4
    weird = tmp_path / "weird.csv"
    weird.write_text("a,b\n1,2\n")
    assert main(["plot-data", str(weird)]) == 2
    # malformed tables, the first with a dispersion header short of E3: each
    # exits 2 before any series is written, and names the line at fault
    malformed = [("k,E1,E2\n1,2,3\n", "unrecognized result table layout"),
                 ("k,E1,E2,E3\n0,1,2,3\n\n1,2,3\n", "line 4: 3 cells under a header of 4"),
                 ("k,E1,E2,E3\n0,1,2,3\n1,2,x,4\n", "line 3: could not convert"),
                 ("delta,xi_x,status\n1,2,ok\n3,4,5,ok\n", "line 3: 4 cells"),
                 ("delta,xi_x,status\n1,2,ok\n3,y,ok\n", "line 3: could not convert"),
                 ("a,b,n_minima\n0,0,1\n0,1,2.5\n", "line 3: invalid literal for int()"),
                 ("a,b,n_minima\n0,0,1\n0,1,2\n1,0,1\n", "every cell of its 2 x 2 grid")]
    for i, (text, message) in enumerate(malformed):
        table = tmp_path / f"bad{i}" / "table.csv"
        table.parent.mkdir()
        table.write_text(text)
        assert main(["plot-data", str(table)]) == 2, text
        assert message in capsys.readouterr().err, text
        assert os.listdir(table.parent) == ["table.csv"], text
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
    # solve, not for an ED report, not for an ED sweep at --jobs 2, which
    # forks its children without loading a process pool.  Each layer loads on
    # first use, numpy only in the run that computes (not to import the CLI
    # or load a config), and the CLI fixes the BLAS thread count before numpy
    # loads unless the environment already sets one or numpy is loaded already
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    submodules = tuple(f"socsqueeze.{name[:-3]}"
                       for name in os.listdir(os.path.join(src, "socsqueeze"))
                       if name.endswith(".py") and name != "__init__.py")
    cfg = write_config(tmp_path / "sweep.ini", SWEEP_INI)
    eff = write_config(tmp_path / "eff.ini", SWEEP_INI.replace("command = sweep",
                                                               "command = eff-squeeze"))
    run = "from socsqueeze.cli import main; assert main({!r}) == 0"
    solvers = ("socsqueeze.bands", "socsqueeze.gp", "socsqueeze.fockspace",
               "socsqueeze.gaussian", "socsqueeze.metrics", "socsqueeze.algebra",
               "socsqueeze.crossing")
    pools = ("concurrent.futures", "multiprocessing")
    # (setup, thread variables set before it, modules it must not load besides
    # scipy, OPENBLAS_NUM_THREADS after it)
    load_all = "; ".join(f"socsqueeze.cli.load_config({path!r})" for path in SHIPPED_CONFIGS)
    setups = (
        ("import socsqueeze", {}, ("numpy",) + submodules, None),
        ("import socsqueeze.cli", {}, ("numpy",) + solvers + pools, "1"),
        (f"import socsqueeze.cli; {load_all}", {}, ("numpy",) + solvers + pools, "1"),
        ("import socsqueeze.cli", {"OPENBLAS_NUM_THREADS": "3"}, (), "3"),
        ("import socsqueeze.cli", {"OMP_NUM_THREADS": "2"}, (), None),
        # numpy already loaded: the variable would not be in force, so it stays unset
        ("import numpy, socsqueeze.cli", {}, (), None),
        ("import socsqueeze.gaussian as g; from socsqueeze.params import "
         "ModelParams, effective_coefficients; "
         "g.solve_gaussian(effective_coefficients(ModelParams(2.0, 0.0, 6.0, 200)), 200)",
         {}, (), None),
        (run.format(["run", "--config", eff, "--out", str(tmp_path / "eff")]),
         {}, ("socsqueeze.gp", "socsqueeze.bands"), "1"),
        (run.format(["run", "--config", cfg, "--out", str(tmp_path / "sweep"),
                     "--jobs", "2"]), {}, pools, "1"),
    )
    # the forked children compute cells too: a scipy that fails on import,
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


def test_front_end_runs_without_numpy(tmp_path):
    # with a numpy that fails on import first on the path, the front end still
    # parses, validates and dispatches: --help, plot-data on a sweep table,
    # and a malformed config that exits 2 with nothing written
    table = tmp_path / "sweep" / "sweep.csv"
    table.parent.mkdir()
    table.write_text("omega_R,xi_x,status\n0.5,0.25,ok\n1,0.125,ok\n2,nan,failed\n")
    out = tmp_path / "out"
    bad = write_config(tmp_path / "bad.ini", f"[run]\ncommand = sweep\nout = {out}\n"
                                             "[sweep]\naxis = delta\nvalues = 1 y\n")
    blocked = tmp_path / "blocked" / "numpy"
    blocked.mkdir(parents=True)
    (blocked / "__init__.py").write_text("raise ImportError('numpy is blocked')\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(blocked.parent), os.path.join(ROOT, "src")])}

    def cli_run(*args):
        return subprocess.run([sys.executable, "-m", "socsqueeze.cli", *args],
                              capture_output=True, text=True, env=env)

    proc = cli_run("--help")
    assert proc.returncode == 0 and "plot-data" in proc.stdout, proc.stderr
    proc = cli_run("plot-data", str(table))
    assert proc.returncode == 0, proc.stderr
    assert read_bytes(table.parent / "series_xi_x.csv") == b"omega_R,xi_x\n0.5,0.25\n1,0.125\n"
    proc = cli_run("run", "--config", bad)
    assert proc.returncode == 2, proc.stderr
    assert "bad value for [sweep] values: '1 y'" in proc.stderr
    assert not out.exists()
    # the block holds: numpy cannot load in these processes
    proc = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 1 and "numpy is blocked" in proc.stderr


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


def run_cli(*args, code=None, **kwargs):
    """`python -m socsqueeze.cli args` (or `python -c code args`) from src/, with
    PYTHONUNBUFFERED removed so that stdout and stderr are block-buffered pipes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    head = ["-c", code] if code is not None else ["-m", "socsqueeze.cli"]
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, *head, *args], text=True, env=env, **pipes)


def test_console_script_runs_the_function_the_main_block_calls():
    # the installed `socsqueeze` and `python -m socsqueeze.cli` share one
    # process entry, so the two cannot drift apart
    import ast
    import importlib

    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["socsqueeze"]
    module, _, name = target.partition(":")
    tree = ast.parse(read_bytes(cli.__file__))
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    (stmt,) = block.body
    assert isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
    assert not stmt.value.args and not stmt.value.keywords
    assert getattr(importlib.import_module(module), name) is getattr(cli, stmt.value.func.id)


def test_process_entry_ends_hard_only_when_main_returns(tmp_path):
    # a returned exit code ends the process by os._exit after a flush: text
    # still buffered on stdout arrives, and an exit handler another package
    # registered does not run.  --help (SystemExit) and an unexpected
    # exception (a traceback, exit 1) take the interpreter's normal exit
    code = ("import atexit, sys\n"
            "import socsqueeze.cli as cli\n"
            "atexit.register(print, 'exit handler ran')\n"
            "if sys.argv[1] == 'crash':\n"
            "    cli.load_config = lambda *args, **kwargs: 1 / 0\n"
            "    sys.argv[1] = 'run'\n"
            "print('buffered', end=' ')\n"
            "cli.entry_point()\n")
    missing = str(tmp_path / "nope.ini")
    proc = run_cli("run", "--config", missing, code=code)
    assert (proc.returncode, proc.stdout) == (2, "buffered ")
    assert "configuration error" in proc.stderr
    proc = run_cli("--help", code=code)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("buffered usage: socsqueeze")
    assert proc.stdout.endswith("exit handler ran\n")
    proc = run_cli("crash", "--config", missing, code=code)
    assert (proc.returncode, proc.stdout) == (1, "buffered exit handler ran\n")
    assert "Traceback" in proc.stderr and "ZeroDivisionError" in proc.stderr
    # a process whose stdout is closed has sys.stdout None, and keeps its code
    proc = run_cli("run", "--config", missing, stdout=None, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2 and proc.stderr.startswith("configuration error: ")


def test_hard_exit_drops_no_line_and_no_file(tmp_path):
    # with block-buffered pipes: a sweep with a failing cell keeps its stderr
    # line, errors.json and the whole sweep.csv; a config error exits 2 with
    # nothing written; and a --jobs 2 sweep, whose forked child ends by
    # os._exit as well, writes the bytes of the same run made in process
    reason = ("ConvergenceError: the Lanczos recurrence overflows float64; the "
              "Hamiltonian entries are too large")
    cfg = write_config(tmp_path / "fail.ini", SWEEP_INI.replace(
        "values = 0.5 1.0 2.0", "values = 0.5 1e300 2.0"))
    out = tmp_path / "fail"
    proc = run_cli("run", "--config", cfg, "--out", str(out))
    assert proc.returncode == 3
    assert proc.stderr == f"sweep cell 1 failed: {reason}\n"
    assert json.loads(read_bytes(out / "errors.json")) == {"1": reason}
    table = read_bytes(out / "sweep.csv").decode()
    assert table.endswith("\n")
    assert [row.split(",")[-1] for row in table.splitlines()] == ["status", "ok", "failed", "ok"]

    out = tmp_path / "bad"
    bad = write_config(tmp_path / "bad.ini", f"[run]\ncommand = explode\nout = {out}\n")
    proc = run_cli("run", "--config", bad)
    assert proc.returncode == 2 and proc.stderr.startswith("configuration error: ")
    assert not out.exists()

    cfg = write_config(tmp_path / "sweep.ini", SWEEP_INI)
    outs = {side: tmp_path / side for side in ("process", "in_process")}
    proc = run_cli("run", "--config", cfg, "--out", str(outs["process"]), "--jobs", "2")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert main(["run", "--config", cfg, "--out", str(outs["in_process"]), "--jobs", "2"]) == 0
    names = sorted(os.listdir(outs["process"]))
    assert names == sorted(os.listdir(outs["in_process"])) and len(names) == 5
    for name in names:
        if name != "manifest.json":
            assert read_bytes(outs["process"] / name) == read_bytes(outs["in_process"] / name)
    # the manifests differ only in the out path and in the BLAS variables,
    # which the CLI sets only where numpy is not loaded yet (not under pytest)
    manifests = [json.loads(read_bytes(o / "manifest.json")) for o in outs.values()]
    for manifest in manifests:
        del manifest["out"], manifest["blas_threads"]
    assert manifests[0] == manifests[1]


def test_sweep_cell_holds_over_the_parameter_space(monkeypatch):
    # a fuzz of the report cell over omega_R 0-8, delta -2-2 and epsilon -8-8 on
    # both squeezing backends, then a cell past float64 on each: every cell
    # returns its index and a report or a recorded error of the types a cell
    # keeps its siblings through, and no exception escapes (numpy
    # RuntimeWarnings are errors under pytest)
    from socsqueeze import cli
    from socsqueeze.config import AxisSpec, RunConfig
    from socsqueeze.params import ModelParams

    recorded = []

    def failure(exc):
        recorded.append(exc)
        return {"error": f"{type(exc).__name__}: {exc}"}

    monkeypatch.setattr(cli, "_failure", failure)
    rng = np.random.default_rng(41)
    outcomes = {"report": 0, "error": 0}
    for backend, sizes in (("gaussian", (10, 200, 100000)), ("ed", (2, 7, 30))):
        for n in sizes:
            params = ModelParams(omega_R=0.0, delta=0.0, epsilon=0.0, N=n)
            cfg = RunConfig(command="sweep", backend=backend, out="unused", seed=0, jobs=1,
                            params=params, sweep=AxisSpec("delta", (0.0, 1.0)))
            points = [params.replace(omega_R=rng.uniform(0.0, 8.0), delta=rng.uniform(-2.0, 2.0),
                                     epsilon=rng.uniform(-8.0, 8.0)) for _ in range(34)]
            for index, point in enumerate(points + [params.replace(omega_R=1.7e308)]):
                got_index, payload = cli._sweep_cell((cfg, index, point))
                assert got_index == index
                (key,) = payload
                outcomes[key] += 1
    assert sum(outcomes.values()) == 210
    assert len(recorded) == outcomes["error"]
    assert all(isinstance(exc, cli._CELL_ERRORS) for exc in recorded)
    assert outcomes["report"] > 0 and outcomes["error"] > 0

"""The four benchmark workloads: which CLI runs make up a round and how each is checked.

A round runs every invocation of its workload once, each in a fresh
process.  Checks compare the files an invocation wrote with reference
computations made once per benchmark run (reference.py), or with properties
the method must have; never with a stored copy of earlier output.
"""

import configparser
import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import reference as ref

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")

# tolerances, fixed before measuring; observed agreement is several digits better
ENERGY_RTOL = 1e-9      # ED ground energy against the reference eigensolve
XI_RTOL = 1e-8          # squeezing parameters against the closed-form minimum
THETA_TOL = 1e-6        # quadrature angle, radians modulo pi
POP_ATOL = 1e-9         # populations
BAND_E_TOL = 1e-9       # phase-diagram E_min
BAND_K_TOL = 1e-5       # phase-diagram k_min
GP_ENERGY_RTOL = 1e-6   # the reference Rb-87 mass differs from the package's by 2e-7
NORM_TOL = 1e-9


@dataclass(frozen=True)
class Invocation:
    """One `socsqueeze run`: a config under configs/, its flags and a label."""

    label: str
    config: str
    jobs: int = 1
    seed: int = 0

    @property
    def path(self):
        return os.path.join(CONFIG_DIR, self.config)

    def argv(self, out_dir):
        return ["run", "--config", self.path, "--out", out_dir,
                "--jobs", str(self.jobs), "--seed", str(self.seed)]


@dataclass(frozen=True)
class Workload:
    """A named round of invocations; BENCHMARK.json and the README say why each exists."""

    name: str
    invocations: tuple


WORKLOADS = {w.name: w for w in (
    Workload("phase-diagram",
             (Invocation("phase", "phase_diagram.ini", jobs=2),)),
    Workload("squeeze-ed",
             (Invocation("N200", "sweep_drive.ini"), Invocation("N40", "ed_n40.ini"),
              Invocation("N61", "ed_n61.ini"), Invocation("N62", "ed_n62.ini"))),
    Workload("squeeze-gaussian",
             tuple(Invocation(f"{axis}-{n}", f"gauss_{axis}_{n}.ini")
                   for axis, n in (("drive", "n200"), ("detuning", "n1e5"),
                                   ("shift", "n200")))),
    # GP seeds are those of the shipped config and of criteria 10 and 11;
    # the detuned step count swings from 3300 to 9250 over seeds 0..7
    Workload("gp-ground",
             (Invocation("shipped", "gp_ground.ini", seed=7),
              Invocation("detuned", "gp_detuned.ini", seed=7),
              Invocation("oscillator", "gp_oscillator.ini", seed=1))),
)}


# --- config reading (independent of socsqueeze.config) ----------------------

def read_config(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if not parser.read(path):
        raise FileNotFoundError(path)
    return parser


def axis_values(section, suffix=""):
    """(name, values) of a swept axis: an explicit list or min/max/count."""
    name = section[f"axis{suffix}"]
    if f"values{suffix}" in section:
        return name, [float(v) for v in section[f"values{suffix}"].split()]
    lo, hi = float(section[f"min{suffix}"]), float(section[f"max{suffix}"])
    count = int(section[f"count{suffix}"])
    return name, [lo + (hi - lo) / (count - 1) * i for i in range(count)]


def base_params(parser):
    p = parser["params"]
    return {"omega_R": float(p.get("omega_R", 0.0)), "delta": float(p.get("delta", 0.0)),
            "epsilon": float(p.get("epsilon", 0.0)), "N": int(p.get("N", 100))}


def kind_of(parser):
    run = parser["run"]
    command = run["command"]
    if command in ("sweep", "eff-squeeze"):
        return f"{command}-{run.get('backend', 'ed')}"
    return command


def expected_operations(inv):
    """Operations one invocation attempts: cells of a sweep or grid, or one report."""
    parser = read_config(inv.path)
    kind = kind_of(parser)
    if kind == "phase-diagram":
        sec = parser["phase-diagram"]
        return len(axis_values(sec, "1")[1]) * len(axis_values(sec, "2")[1])
    if kind.startswith("sweep"):
        return len(axis_values(parser["sweep"])[1])
    return 1


# --- references, computed once per benchmark run ----------------------------

def _sweep_points(parser):
    """Parameter points of a sweep, or the single point of an eff-squeeze run."""
    base = base_params(parser)
    if not parser.has_section("sweep"):
        return [base]
    axis, values = axis_values(parser["sweep"])
    return [dict(base, **{axis: v}) for v in values]


def _phase_reference(parser):
    sec = parser["phase-diagram"]
    name1, values1 = axis_values(sec, "1")
    name2, values2 = axis_values(sec, "2")
    base = base_params(parser)
    minima = []
    for v1 in values1:
        for v2 in values2:
            p = dict(base, **{name1: v1, name2: v2})
            minima.append(ref.band_minima(p["omega_R"], p["delta"], p["epsilon"]))
    return {"axes": (name1, name2), "shape": (len(values1), len(values2)), "minima": minima}


def _ed_reference(parser):
    points = _sweep_points(parser)
    fock = ref.FockReference(points[0]["N"])
    cells = []
    for p in points:
        energy, vec, residual = fock.ground_state(p["omega_R"], p["delta"], p["epsilon"])
        means, cov = fock.moments(vec)
        cells.append({"energy": energy, "residual": residual, "N": p["N"],
                      "means": means, "cov": cov})
    return {"cells": cells}


def _gaussian_reference(parser):
    """Moments of the package's Gaussian backend at every sweep cell.

    The check is on what the CLI reports from these moments, so the moments
    themselves come from the backend under test.
    """
    from socsqueeze import (ModelParams, effective_coefficients, gaussian_moment_set,
                            solve_gaussian)

    cells = []
    for p in _sweep_points(parser):
        params = ModelParams(**p)
        moments = gaussian_moment_set(solve_gaussian(effective_coefficients(params), p["N"]))
        means, cov = moments.to_arrays()
        cells.append({"N": p["N"], "means": means, "cov": cov})
    return {"cells": cells}


def _gp_reference(parser):
    p = base_params(parser)
    t = parser["trap"]
    trap_hz = (float(t["omega_x"]), float(t["omega_y"]), float(t["omega_z"]))
    recoil = float(t["recoil_frequency"])
    n_atoms = p["N"]
    c0 = c2 = 0.0
    if parser.has_section("interaction"):
        i = parser["interaction"]
        n_atoms = float(i["n_atoms"])
        dim = len(parser["grid"]["n_points"].split())
        c0, c2 = ref.mean_field_couplings(float(i["a_s0"]), float(i["a_s2"]), n_atoms,
                                          trap_hz, recoil, dim)
    return {"params": p, "trap_ratio": trap_hz[0] / recoil, "c0": c0, "c2": c2,
            "n_atoms": n_atoms}


_REFERENCES = {"phase-diagram": _phase_reference, "sweep-ed": _ed_reference,
               "eff-squeeze-ed": _ed_reference, "sweep-gaussian": _gaussian_reference,
               "gp-ground": _gp_reference}


def prepare(workload):
    """Reference data for every invocation of a workload, keyed by label."""
    out = {}
    for inv in workload.invocations:
        parser = read_config(inv.path)
        out[inv.label] = (kind_of(parser), _REFERENCES[kind_of(parser)](parser))
    return out


# --- checks -----------------------------------------------------------------

def _close(a, b, rtol, floor=1.0):
    return abs(a - b) <= rtol * max(floor, abs(a), abs(b))


def _angle_close(a, b):
    d = abs(a - b) % math.pi
    return min(d, math.pi - d) <= THETA_TOL


def _report_problems(tag, rep, n_atoms, means, cov):
    """Metrics and populations of one report against closed forms on given moments."""
    problems = []
    best = ref.angle_minimum(n_atoms, means, cov)
    for key in ("xi_x", "xi_dcz_min", "xi_uv_min"):
        if not _close(rep[key], best[key], XI_RTOL, floor=0.0):
            problems.append(f"{tag}: {key} {rep[key]!r} != reference {best[key]!r}")
    if best["gap"] > 1e-9 * max(1.0, abs(best["lambda_min"])):
        for key in ("theta_dcz", "theta_uv"):
            if not _angle_close(rep[key], best["theta"]):
                problems.append(f"{tag}: {key} {rep[key]!r} != reference {best['theta']!r}")
    pops = ref.populations(n_atoms, means)
    for key, value in zip(("rho_m1", "rho_0", "rho_p1"), pops):
        if abs(rep[key] - value) > POP_ATOL:
            problems.append(f"{tag}: {key} {rep[key]!r} != reference {value!r}")
    return problems


def _cell_reports(out_dir, single):
    """(rows, report paths) of a sweep's sweep.csv, or of an eff-squeeze report.json;
    rows is None if the index file is missing."""
    if single:
        path = os.path.join(out_dir, "report.json")
        return ([{"status": "ok"}] if os.path.isfile(path) else None), [path]
    path = os.path.join(out_dir, "sweep.csv")
    if not os.path.isfile(path):
        return None, []
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows, [os.path.join(out_dir, f"report_{i:03d}.json") for i in range(len(rows))]


def _check_reports(inv, out_dir, data, ed, single):
    cells = data["cells"]
    rows, reports = _cell_reports(out_dir, single)
    if rows is None:
        return 0, [f"{inv.label}: no {'report.json' if single else 'sweep.csv'}"]
    if len(rows) != len(cells):
        return 0, [f"{inv.label}: {len(rows)} rows for {len(cells)} cells"]
    ok, problems = 0, []
    for i, (row, cell, report) in enumerate(zip(rows, cells, reports)):
        if row["status"] != "ok":
            continue
        tag = f"{inv.label} cell {i}"
        if not os.path.isfile(report):
            problems.append(f"{tag}: status ok but no {os.path.basename(report)}")
            continue
        with open(report) as fh:
            rep = json.load(fh)
        if ed:
            if cell["residual"] > 1e-9 * max(1.0, abs(cell["energy"])):
                problems.append(f"{tag}: reference residual {cell['residual']:.2e}")
            if not _close(rep["ground_energy"], cell["energy"], ENERGY_RTOL):
                problems.append(f"{tag}: ground_energy {rep['ground_energy']!r} != "
                                f"reference {cell['energy']!r}")
        else:
            gap, scale = ref.robertson_gap(cell["means"], cell["cov"])
            if gap < -1e-9 * scale:
                problems.append(f"{tag}: moments violate the Robertson bound by {-gap:.3e}")
            total = rep["rho_m1"] + rep["rho_0"] + rep["rho_p1"]
            if abs(total - 1.0) > POP_ATOL:
                problems.append(f"{tag}: populations sum to {total!r}")
        problems += _report_problems(tag, rep, cell["N"], cell["means"], cell["cov"])
        ok += 1
    return ok, problems


def _check_phase(inv, out_dir, data):
    path = os.path.join(out_dir, "phase_diagram.csv")
    if not os.path.isfile(path):
        return 0, [f"{inv.label}: no phase_diagram.csv"]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    n1, n2 = data["shape"]
    if len(rows) != n1 * n2:
        return 0, [f"{inv.label}: {len(rows)} rows for {n1 * n2} cells"]
    problems = []
    counts = np.array([int(r["n_minima"]) for r in rows]).reshape(n1, n2)
    for i, (row, minima) in enumerate(zip(rows, data["minima"])):
        e, k = float(row["E_min"]), float(row["k_min"])
        e_ref = minima[0][0]
        if not _close(e, e_ref, BAND_E_TOL):
            problems.append(f"{inv.label} cell {i}: E_min {e!r} != reference {e_ref!r}")
        elif not any(abs(k - km) <= BAND_K_TOL for em, km in minima
                     if _close(em, e_ref, BAND_E_TOL)):
            problems.append(f"{inv.label} cell {i}: k_min {k!r} is no global reference minimum")
    if not np.all(np.isin(counts, (1, 2, 3))):
        problems.append(f"{inv.label}: minima counts outside 1..3")
    if data["axes"][1] == "delta" and not np.array_equal(counts, counts[:, ::-1]):
        problems.append(f"{inv.label}: minima counts are not mirror-symmetric in delta")
    return n1 * n2, problems


def _check_gp(inv, out_dir, data):
    report_path = os.path.join(out_dir, "report.json")
    if not os.path.isfile(report_path):
        return 0, [f"{inv.label}: no report.json"]
    with open(report_path) as fh:
        rep = json.load(fh)
    with np.load(os.path.join(out_dir, "field.npz"), allow_pickle=False) as z:
        psi, x, dv = z["psi"], z["axis0"], float(z["dv"][0])
    trace = np.loadtxt(os.path.join(out_dir, "energy_trace.csv"), delimiter=",",
                       skiprows=1, ndmin=2)
    p = data["params"]
    problems = []
    norm = float(np.sum(np.abs(psi) ** 2) * dv)
    if abs(norm - 1.0) > NORM_TOL:
        problems.append(f"{inv.label}: field norm {norm!r}")
    energy = ref.gp_energy(psi, x, p["omega_R"], p["delta"], p["epsilon"],
                           data["trap_ratio"], data["c0"], data["c2"])
    reported = rep["gp_energy_per_atom"]
    if not _close(reported, energy, GP_ENERGY_RTOL):
        problems.append(f"{inv.label}: energy {reported!r} != reference functional {energy!r}")
    slack = 1e-12 * max(1.0, float(np.max(np.abs(trace[:, 1]))))
    if np.any(np.diff(trace[:, 1]) > slack):
        problems.append(f"{inv.label}: energy_trace.csv increases")
    means, cov = ref.hartree_moments(psi, dv, data["n_atoms"])
    problems += _report_problems(inv.label, rep, data["n_atoms"], means, cov)
    rho_m1, _, rho_p1 = ref.populations(data["n_atoms"], means)
    if inv.label == "detuned" and not rho_p1 > rho_m1:
        problems.append(f"detuned: no polarization toward +1 ({rho_p1!r} <= {rho_m1!r})")
    if inv.label == "oscillator":
        exact = ref.oscillator_energy(data["trap_ratio"], p["epsilon"])
        if abs(reported - exact) > 0.01 * abs(exact):
            problems.append(f"oscillator: energy {reported!r} not within 1% of {exact!r}")
    return 1, problems


def check(inv, out_dir, prepared):
    """(operations that completed, problems) for one invocation's output directory."""
    kind, data = prepared[inv.label]
    if kind == "phase-diagram":
        return _check_phase(inv, out_dir, data)
    if kind == "gp-ground":
        return _check_gp(inv, out_dir, data)
    return _check_reports(inv, out_dir, data, ed=kind.endswith("-ed"),
                          single=kind.startswith("eff-squeeze"))

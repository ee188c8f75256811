"""Acceptance gate: twelve end-to-end checks, one per shipped behaviour.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the verbose listing).  Tolerances are part of the contract; do not loosen
them to make a failing build pass.
"""

import json
import math
import time
from functools import lru_cache

import numpy as np

from socsqueeze.algebra import generator_matrix, generator_stack, verify_algebra
from socsqueeze.bands import branch_energies, classify, dispersion
from socsqueeze.cli import main
from socsqueeze.config import GridSpec, InteractionConfig, TrapConfig
from socsqueeze.fockspace import ed_ground_state, ed_moment_set
from socsqueeze.gaussian import gaussian_moment_set, solve_gaussian
from socsqueeze.gp import build_problem, field_populations, imaginary_time_ground_state
from socsqueeze.metrics import optimize_theta, populations, xi_x
from socsqueeze.params import ModelParams, effective_coefficients

TRAP = TrapConfig(150.0, 150.0, 1500.0, recoil_frequency=3678.0)


def _line(num, ok, detail, t0):
    msg = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} {detail} ({time.perf_counter() - t0:.1f} s)"
    print(msg)
    assert ok, msg


@lru_cache(maxsize=None)
def _ed_moments(omega_R, delta, epsilon, N):
    params = ModelParams(omega_R=omega_R, delta=delta, epsilon=epsilon, N=N)
    state = ed_ground_state(effective_coefficients(params), N)
    return ed_moment_set(state)


@lru_cache(maxsize=None)
def _hp_moments(omega_R, delta, epsilon, N):
    params = ModelParams(omega_R=omega_R, delta=delta, epsilon=epsilon, N=N)
    coeffs = effective_coefficients(params)
    return gaussian_moment_set(solve_gaussian(coeffs, N))


def test_criterion_01_operator_algebra():
    t0 = time.perf_counter()
    report = verify_algebra()
    worst = max(dev for _, dev in report)
    stack = generator_stack()
    herm = max(float(np.max(np.abs(g - g.conj().T))) for g in stack)
    trace = max(abs(complex(np.trace(g))) for g in stack)
    gram = np.real(np.einsum("aij,bji->ab", stack, stack))
    gram_dev = float(np.max(np.abs(gram - 2.0 * np.eye(8))))
    worst = max(worst, herm, trace, gram_dev)
    _line(1, worst <= 1e-14, f"algebra identities, max deviation {worst:.2e}", t0)


def test_criterion_02_undriven_band_oracle():
    t0 = time.perf_counter()
    k = np.linspace(-4.0, 4.0, 2001)
    dev = 0.0
    for delta, epsilon in ((1.0, 0.0), (1.0, 6.0), (0.3, 2.0)):
        params = ModelParams(omega_R=0.0, delta=delta, epsilon=epsilon, N=100)
        lowest = branch_energies(k, params)[:, 0]
        parabolas = np.stack([(k + 2.0) ** 2 - delta, k**2 - epsilon, (k - 2.0) ** 2 + delta])
        dev = max(dev, float(np.max(np.abs(lowest - parabolas.min(axis=0)))))
    n3 = dispersion(ModelParams(omega_R=0.0, delta=1.0, epsilon=0.0, N=100)).n_minima
    n1 = dispersion(ModelParams(omega_R=0.0, delta=1.0, epsilon=6.0, N=100)).n_minima
    ok = dev <= 1e-12 and n3 == 3 and n1 == 1
    _line(2, ok, f"parabola oracle dev {dev:.2e}, minima counts {n3}/{n1}", t0)


def test_criterion_03_phase_diagram_mirror_symmetry():
    t0 = time.perf_counter()
    omegas = np.linspace(0.25, 5.0, 20)
    deltas = np.linspace(-4.75, 4.75, 20)
    counts = {}
    for om in omegas:
        for de in deltas:
            params = ModelParams(omega_R=float(om), delta=float(de), epsilon=6.0, N=100)
            counts[(float(om), float(de))] = classify(params).n_minima
    mismatches = sum(
        counts[(float(om), float(de))] != counts[(float(om), float(-de))]
        for om in omegas for de in deltas
    )
    _line(3, mismatches == 0, f"20x20 grid, {mismatches} delta-mirror mismatches", t0)


def test_criterion_04_ed_gaussian_convergence():
    t0 = time.perf_counter()
    sizes = (20, 50, 100, 200)
    gaps = []
    for n in sizes:
        ed = xi_x(_ed_moments(2.0, 0.0, 6.0, n))
        hp = xi_x(_hp_moments(2.0, 0.0, 6.0, n))
        gaps.append(abs(hp - ed))
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    rel = gaps[-1] / xi_x(_ed_moments(2.0, 0.0, 6.0, 200))
    ok = decreasing and rel <= 0.05
    _line(4, ok, f"|HP-ED| gaps {['%.2e' % g for g in gaps]}, rel at N=200 {rel:.2%}", t0)


def test_criterion_05_squeezing_grows_with_drive():
    t0 = time.perf_counter()
    xi0 = xi_x(_ed_moments(0.0, 0.0, 6.0, 200))
    xis = [xi_x(_ed_moments(om, 0.0, 6.0, 200)) for om in (0.5, 1.0, 2.0, 3.0, 4.0)]
    ok = (abs(xi0 - 1.0) <= 1e-9
          and all(b < a for a, b in zip(xis, xis[1:]))
          and all(v < 1.0 for v in xis))
    _line(5, ok, f"xi_x at drive 0: {xi0:.9f}; decreasing {['%.4f' % v for v in xis]}", t0)


def test_criterion_06_quadratic_shift_degrades_squeezing():
    t0 = time.perf_counter()
    xis = [xi_x(_ed_moments(2.0, 0.0, ep, 200)) for ep in (2.0, 4.0, 6.0, 8.0, 10.0)]
    ok = all(b >= a for a, b in zip(xis, xis[1:]))
    _line(6, ok, f"xi_x non-decreasing over shift {['%.4f' % v for v in xis]}", t0)


def test_criterion_07_detuning_benefit():
    t0 = time.perf_counter()
    deltas = (0.0, 1.0, 2.0, 3.0, 4.0)
    xis = [xi_x(_ed_moments(2.0, de, 6.0, 200)) for de in deltas]
    best = deltas[int(np.argmin(xis))]
    _line(7, best != 0.0, f"best xi_x {min(xis):.4f} at detuning {best}", t0)


def test_criterion_08_optimal_angle_is_zero():
    t0 = time.perf_counter()
    m = _ed_moments(2.0, 0.0, 6.0, 200)
    t_dcz, v_dcz = optimize_theta(m, "dcz")
    t_uv, v_uv = optimize_theta(m, "uv")
    d_dcz = min(t_dcz, math.pi - t_dcz)
    d_uv = min(t_uv, math.pi - t_uv)
    ok = d_dcz <= 1e-3 and d_uv <= 1e-3 and v_dcz < 1.0 and v_uv < 1.0
    _line(8, ok, f"theta* {t_dcz:.2e}/{t_uv:.2e}, minima {v_dcz:.4f}/{v_uv:.4f}", t0)


def test_criterion_09_witnesses_agree_at_low_excitation():
    t0 = time.perf_counter()
    worst_margin = -1.0
    details = []
    ok = True
    for om in (0.5, 1.0, 2.0):
        m = _ed_moments(om, 0.0, 6.0, 200)
        _, v_dcz = optimize_theta(m, "dcz")
        _, v_uv = optimize_theta(m, "uv")
        rho_0 = populations(m)[1]
        bound = 2.0 * (1.0 - rho_0)
        gap = abs(v_uv - v_dcz)
        ok = ok and gap <= bound
        worst_margin = max(worst_margin, gap - bound)
        details.append(f"{gap:.2e}<={bound:.2e}")
    _line(9, ok, "witness gap within excitation bound: " + ", ".join(details), t0)


def test_criterion_10_trapped_oscillator_sanity():
    t0 = time.perf_counter()
    eps = 2.0
    params = ModelParams(omega_R=0.0, delta=0.0, epsilon=eps, N=100)
    prob = build_problem(params, TRAP, None, GridSpec((256,), (32.0,)))
    res = imaginary_time_ground_state(prob, dt=0.01, tol=1e-10, seed=1)
    w = TRAP.frequency_ratio(0)
    exact = 0.5 * w - eps
    e_rel = abs(res.energy - exact) / abs(exact)
    rho_0 = field_populations(res.field)[1]
    energies = res.energy_trace[:, 1]
    tail = energies[len(energies) // 10:]
    slack = 1e-8 * max(1.0, float(np.max(np.abs(tail))))
    monotone = bool(np.all(np.diff(tail) <= slack))

    swaps = []
    for de in (1.0, -1.0):
        p = ModelParams(omega_R=1.0, delta=de, epsilon=0.0, N=100)
        pr = build_problem(p, TRAP, None, GridSpec((256,), (32.0,)))
        # the asymmetric seed decays with the residual excitation, so the
        # mirror check needs a tight stopping tolerance
        r = imaginary_time_ground_state(pr, dt=0.01, tol=1e-13, seed=1)
        swaps.append(field_populations(r.field))
    swap_dev = max(abs(swaps[0][2] - swaps[1][0]), abs(swaps[0][0] - swaps[1][2]))

    ok = (e_rel <= 0.01 and abs(rho_0 - 1.0) <= 1e-6 and monotone
          and swap_dev <= 1e-6)
    _line(10, ok, f"energy rel err {e_rel:.1e}, rho_0 dev {abs(rho_0 - 1):.1e}, "
          f"monotone tail {monotone}, detuning swap dev {swap_dev:.1e}", t0)


def test_criterion_11_interacting_trends():
    t0 = time.perf_counter()
    inter = InteractionConfig(101.8, 100.4, 1e5)
    grid = GridSpec((1024,), (160.0,))

    xis = {}
    for om in (1.0, 3.0):
        params = ModelParams(omega_R=om, delta=0.0, epsilon=6.0, N=100000)
        prob = build_problem(params, TRAP, inter, grid)
        res = imaginary_time_ground_state(prob, dt=0.01, tol=1e-10, seed=7)
        from socsqueeze.gp import gp_moment_set

        xis[om] = xi_x(gp_moment_set(res.field, inter.N))

    params = ModelParams(omega_R=2.0, delta=2.0, epsilon=0.0, N=100000)
    prob = build_problem(params, TRAP, inter, grid)
    res = imaginary_time_ground_state(prob, dt=0.02, tol=1e-7, max_steps=300000, seed=7)
    rm, _, rp = field_populations(res.field)

    # detuning lowers the m=+1 well, so positive detuning must polarize to +1
    ok = xis[3.0] < xis[1.0] and (rp - rm) > 1e-3
    _line(11, ok, f"xi_x {xis[1.0]:.4f} -> {xis[3.0]:.4f} with drive, "
          f"imbalance {rp - rm:+.3f} at detuning +2", t0)


def test_criterion_12_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    ini = """
[run]
command = sweep
backend = ed
seed = 3

[params]
N = 40
epsilon = 6.0

[sweep]
axis = omega_R
values = 0.5 1.0 2.0
"""
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)

    def snap(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def run_twice(name, jobs):
        # a rerun writes into the same directory, as a user repeat would
        out = tmp_path / name
        first = second = None
        for _ in range(2):
            code = main(["run", "--config", str(cfg), "--out", str(out),
                         "--jobs", str(jobs)])
            assert code == 0
            first, second = second, snap(out)
        return first, second

    a1, a2 = run_twice("serial", 1)
    b1, b2 = run_twice("parallel", 2)
    same_serial = a1 == a2
    same_parallel = b1 == b2
    cross = all(a1[n] == b1[n] for n in a1 if n != "manifest.json")
    jobs_recorded = (json.loads(a1["manifest.json"])["jobs"] == 1
                     and json.loads(b1["manifest.json"])["jobs"] == 2)

    ok = same_serial and same_parallel and cross and jobs_recorded
    _line(12, ok, f"serial rerun identical {same_serial}, parallel rerun identical "
          f"{same_parallel}, serial/parallel tables identical {cross}", t0)

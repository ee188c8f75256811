"""Spinor mean-field solver: configuration guards, exact solvable limits,
Hamiltonian and preconditioner oracles, minimizer behaviour, and moment
consistency."""

import math
import warnings

import numpy as np
import pytest

from socsqueeze.algebra import generator_matrix
from socsqueeze.bands import branch_energies, build_hamiltonian, classify
from socsqueeze.config import (
    SOLVER_DEFAULTS,
    GridSpec,
    InteractionConfig,
    TrapConfig,
    check_gp_setup,
    check_solver_settings,
)
from socsqueeze.errors import ConfigError, ConvergenceError, MomentInputError
from socsqueeze.gp import (
    MAX_BACKTRACKS,
    PRECONDITIONER_SHIFT,
    SpinorField,
    build_problem,
    field_populations,
    gp_moment_set,
    imaginary_time_ground_state,
    load_field,
    mean_field_couplings,
    raman_recoil_momentum,
    save_field,
)
from socsqueeze.metrics import populations as moment_populations
from socsqueeze.params import ModelParams

TRAP = TrapConfig(150.0, 150.0, 1500.0, recoil_frequency=3678.0)
RB = InteractionConfig(101.8, 100.4, 1e5)
J_STACK = np.stack([generator_matrix(lbl) for lbl in ("Jx", "Jy", "Jz")])


def test_trap_rejects_nonpositive_frequencies():
    with pytest.raises(ConfigError):
        TrapConfig(0.0, 150.0, 1500.0, recoil_frequency=3678.0)
    with pytest.raises(ConfigError):
        TrapConfig(150.0, 150.0, 1500.0, recoil_frequency=-1.0)


def test_trap_derived_lengths():
    w = 150.0 / 3678.0
    assert abs(TRAP.frequency_ratio(0) - w) <= 1e-15
    assert abs(TRAP.oscillator_length(0) - math.sqrt(2.0 / w)) <= 1e-12


def test_interaction_validation():
    for n_atoms in (0.5, 100.9, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            InteractionConfig(101.8, 100.4, n_atoms)
    assert InteractionConfig(101.8, 100.4, 1e5).N == 1e5
    with pytest.raises(ConfigError):
        InteractionConfig(float("nan"), 100.4, 100.0)


def test_grid_validation():
    with pytest.raises(ConfigError):
        GridSpec((64, 64), (10.0,))
    with pytest.raises(ConfigError):
        GridSpec((4,), (10.0,))
    with pytest.raises(ConfigError):
        GridSpec((64,), (-1.0,))
    g = GridSpec((64,), (16.0,))
    assert g.dimension == 1
    x = g.axes()[0]
    assert x[0] == -16.0 and len(x) == 64
    assert abs(g.dv - 0.5) <= 1e-15


def test_box_must_cover_three_oscillator_lengths():
    params = ModelParams(omega_R=0.0, delta=0.0, epsilon=0.0, N=100.0)
    # oscillator length is 7.0 here, so a half-width of 10 is too small
    with pytest.raises(ConfigError):
        build_problem(params, TRAP, None, GridSpec((64,), (10.0,)))


def test_reduced_interactions_need_a_trap():
    # the rule lives in check_gp_setup, which build_problem applies before it
    # computes any coupling; a free problem has none
    params = ModelParams(omega_R=0.0, delta=0.0, epsilon=0.0, N=100.0)
    for grid in (GridSpec((64,), (16.0,)), GridSpec((8, 8, 8), (16.0, 16.0, 16.0))):
        with pytest.raises(ConfigError, match="need a trap"):
            check_gp_setup(None, RB, grid)
        with pytest.raises(ConfigError, match="need a trap"):
            build_problem(params, None, RB, grid)
    assert mean_field_couplings(None, None, 1) == (0.0, 0.0)


def test_recoil_momentum_and_couplings_pinned():
    # frozen from the defining constants by hand
    assert abs(raman_recoil_momentum(3678.0) - 7.9529828e6) <= 1e0
    c0, c2 = mean_field_couplings(RB, TRAP, 1)
    assert abs(c0 - 1094.9351) <= 1e-3
    assert abs(c2 + 5.0657936) <= 1e-6
    assert c2 < 0.0 < c0
    # each transverse reduction shrinks the couplings
    c0_2d, _ = mean_field_couplings(RB, TRAP, 2)
    c0_3d, _ = mean_field_couplings(RB, TRAP, 3)
    assert c0 < c0_2d < c0_3d


def test_solver_rejects_bad_stepping():
    params = ModelParams(omega_R=0.0, delta=0.0, epsilon=0.0, N=100.0)
    prob = build_problem(params, None, None, GridSpec((64,), (16.0,)))
    bad = [{"dt": -0.1}, {"dt": float("nan")}, {"dt": float("inf")},
           {"tol": 0.0}, {"tol": float("nan")},
           {"max_steps": 0}, {"max_steps": -3}, {"max_steps": 10.5},
           {"check_every": 0}, {"check_every": -1}]
    for setting in bad:
        with pytest.raises(ConfigError):
            check_solver_settings(**{**SOLVER_DEFAULTS, **setting})
        # check_every <= 0 once looped forever, so the solver itself runs only
        # the other cases; the CLI test runs those two under a timeout
        if "check_every" not in setting:
            with pytest.raises(ConfigError):
                imaginary_time_ground_state(prob, **setting)


def test_kinetic_preconditioner_matches_dense_inverse():
    params = ModelParams(omega_R=1.7, delta=0.3, epsilon=2.0, N=100.0)
    prob = build_problem(params, None, None, GridSpec((32,), (8.0,)))
    floor = min(float(np.min(np.linalg.eigvalsh(h))) for h in prob.h1)
    shift = (PRECONDITIONER_SHIFT - floor) * np.eye(3)
    for m in (0, 5, 17, 31):
        direct = np.linalg.inv(prob.h1[m] + shift)
        assert np.max(np.abs(prob.preconditioner[m] - direct)) <= 1e-12
    flat = _random_field(np.random.default_rng(10), 32)
    flat_k = np.fft.fft(flat, axis=1)
    direct = np.stack([np.linalg.solve(prob.h1[m] + shift, flat_k[:, m]) for m in range(32)],
                      axis=1)
    got = prob.precondition(flat)
    assert np.max(np.abs(got - np.fft.ifft(direct, axis=1))) <= 1e-12 * np.max(np.abs(got))


def _random_field(rng, m):
    return rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))


def test_local_spin_density_matches_generator_einsum():
    params = ModelParams(omega_R=1.0, delta=0.0, epsilon=0.0, N=100.0)
    prob = build_problem(params, None, None, GridSpec((64,), (16.0,)))
    rng = np.random.default_rng(12)
    flat, other = _random_field(rng, 64), _random_field(rng, 64)
    direct = np.einsum("sij,im,jm->sm", J_STACK, flat.conj(), flat).real
    closed = prob.local_spin_density(flat)
    assert closed.shape == (3, 64)
    assert np.max(np.abs(closed - direct)) <= 1e-14 * max(1.0, float(np.max(np.abs(direct))))
    # the bilinear form Re(psi^dagger J chi)
    direct = np.einsum("sij,im,jm->sm", J_STACK, flat.conj(), other).real
    closed = prob.local_spin_density(flat, other)
    assert np.max(np.abs(closed - direct)) <= 1e-14 * max(1.0, float(np.max(np.abs(direct))))


def _dft(n):
    return np.exp(-2j * math.pi * np.outer(np.arange(n), np.arange(n)) / n)


def _oracle_energy(prob, params, psi):
    """Energy per atom of a normalized field psi of shape (3,) + grid shape,
    from its own sums: the band matrix at every grid momentum, written out
    here with the free transverse kinetics, in the field's DFT basis; the
    trap; c0 n^2 / 2; and c2 |F|^2 / 2 with F from the generator matrices."""
    mesh = np.meshgrid(*(2.0 * math.pi * np.fft.fftfreq(n, d=2.0 * half / n)
                         for n, half in zip(prob.grid.n_points, prob.grid.extent)),
                       indexing="ij")
    k = mesh[0].reshape(-1)
    free = sum(axis.reshape(-1) ** 2 for axis in mesh[1:])
    h = np.zeros((k.size, 3, 3))
    h[:, 0, 0] = (k + 2.0) ** 2 - params.delta + free
    h[:, 1, 1] = k**2 - params.epsilon + free
    h[:, 2, 2] = (k - 2.0) ** 2 + params.delta + free
    h[:, 0, 1] = h[:, 1, 0] = h[:, 1, 2] = h[:, 2, 1] = params.omega_R / 2.0
    psi_k = np.fft.fftn(psi, axes=tuple(range(1, psi.ndim))).reshape(3, -1)
    kinetic = np.einsum("im,mij,jm->", psi_k.conj(), h, psi_k).real / k.size
    flat = psi.reshape(3, -1)
    n = np.sum(np.abs(flat) ** 2, axis=0)
    spin = np.einsum("sij,im,jm->sm", J_STACK, flat.conj(), flat).real
    local = np.sum((prob.v_trap + 0.5 * prob.c0 * n) * n) + 0.5 * prob.c2 * np.sum(spin**2)
    return float((kinetic + local) * prob.dv)


def _materialized_hamiltonian(prob, flat):
    """The dense (3M, 3M) mean-field Hamiltonian at a field's density: the band
    matrices conjugated by an explicit DFT matrix, plus a 3x3 matrix
    (V + c0 n) 1 + c2 F.J built at every point."""
    dft = np.ones((1, 1))
    for n in prob.shape:
        dft = np.kron(dft, _dft(n))
    inv = dft.conj().T / prob.size
    m = prob.size
    h = np.zeros((3 * m, 3 * m), dtype=complex)
    for i in range(3):
        for j in range(3):
            h[i * m:(i + 1) * m, j * m:(j + 1) * m] = inv @ (prob.h1[:, i, j][:, None] * dft)
    n = np.sum(np.abs(flat) ** 2, axis=0)
    spin = np.einsum("sij,im,jm->sm", J_STACK, flat.conj(), flat).real
    local = ((prob.v_trap + prob.c0 * n)[:, None, None] * np.eye(3)
             + prob.c2 * np.einsum("sm,sij->mij", spin, J_STACK))
    for p in range(m):
        h[p::m, p::m] += local[p]
    return h


@pytest.mark.parametrize("grid", [GridSpec((48,), (24.0,)), GridSpec((24, 16), (24.0, 24.0))],
                         ids=["1d", "2d"])
def test_hamiltonian_apply_matches_materialized_matrices(grid):
    params = ModelParams(omega_R=2.0, delta=0.5, epsilon=1.0, N=1e5)
    prob = build_problem(params, TRAP, RB, grid)
    assert prob.c2 != 0.0
    field = prob.initial_field(seed=5)
    flat = field.psi.reshape(3, -1)
    h_psi, energy = prob.apply_hamiltonian(flat)
    want = (_materialized_hamiltonian(prob, flat) @ flat.reshape(-1)).reshape(3, -1)
    assert np.max(np.abs(h_psi - want)) <= 1e-13 * np.max(np.abs(want))
    assert abs(energy - _oracle_energy(prob, params, field.psi)) <= 1e-13 * max(1.0, abs(energy))
    mu = float(np.vdot(flat, want).real) * prob.dv
    direct = float(np.linalg.norm(want - mu * flat)) * math.sqrt(prob.dv)
    assert abs(prob.residual(field) - direct) <= 1e-12 * direct


def test_slope_and_curvature_match_energy_differences():
    # E(t) = energy(cos t psi + sin t d) along the great circle through a unit
    # direction d orthogonal to psi: E'(0) = 2 Re<H psi, d>, E''(0) from curvature
    params = ModelParams(omega_R=2.0, delta=0.5, epsilon=1.0, N=1e5)
    prob = build_problem(params, TRAP, RB, GridSpec((256,), (48.0,)))
    rng = np.random.default_rng(4)
    flat = prob.initial_field(seed=5).psi.reshape(3, -1)
    h_psi, _ = prob.apply_hamiltonian(flat)
    mu = float(np.vdot(flat, h_psi).real) * prob.dv
    for smooth in (True, False):
        d = _random_field(rng, 256)
        if smooth:  # a low-momentum direction, where the nonlinear terms dominate
            d = d * np.abs(flat)
        d -= (np.vdot(flat, d) * prob.dv) * flat
        d /= math.sqrt(float(np.vdot(d, d).real) * prob.dv)

        def energy_at(t):
            psi = (math.cos(t) * flat + math.sin(t) * d).reshape((3,) + prob.shape)
            return _oracle_energy(prob, params, psi)

        def differences(h):
            ep, e0, em = energy_at(h), energy_at(0.0), energy_at(-h)
            return (ep - em) / (2.0 * h), (ep - 2.0 * e0 + em) / (h * h)

        # Richardson extrapolation of the central differences
        (s1, c1), (s2, c2) = differences(2e-3), differences(1e-3)
        slope, curv = (4.0 * s2 - s1) / 3.0, (4.0 * c2 - c1) / 3.0
        got_slope = 2.0 * float(np.vdot(h_psi, d).real) * prob.dv
        got_curv = prob.curvature(flat, d, mu)
        assert abs(got_slope - slope) <= 1e-8 * max(1.0, abs(slope))
        assert abs(got_curv - curv) <= 1e-6 * max(1.0, abs(curv))
        # the trial step moves along that circle and returns the same energy
        trial, _, e_trial = prob.step(flat, d, 0.05)
        assert abs(e_trial - energy_at(0.05)) <= 1e-12 * max(1.0, abs(e_trial))


def test_initial_field_is_normalized_and_reproducible():
    params = ModelParams(omega_R=1.0, delta=0.0, epsilon=0.0, N=100.0)
    prob = build_problem(params, TRAP, None, GridSpec((128,), (32.0,)))
    f1, f2 = prob.initial_field(seed=5), prob.initial_field(seed=5)
    assert abs(f1.norm() - 1.0) <= 1e-12
    assert np.array_equal(f1.psi, f2.psi)
    f3 = prob.initial_field(seed=6)
    assert not np.array_equal(f1.psi, f3.psi)


def test_every_iteration_lowers_the_energy():
    params = ModelParams(omega_R=2.0, delta=0.5, epsilon=1.0, N=1e4)
    prob = build_problem(params, TRAP, InteractionConfig(101.8, 100.4, 1e4),
                         GridSpec((128,), (48.0,)))
    res = imaginary_time_ground_state(prob, tol=1e-12, check_every=1, seed=3)
    steps, energies = res.energy_trace[:, 0], res.energy_trace[:, 1]
    assert np.array_equal(steps, np.arange(res.n_steps + 1))
    assert res.n_steps > 10
    slack = 1e-12 * max(1.0, float(np.max(np.abs(energies))))
    assert np.all(np.diff(energies) <= slack)
    assert energies[-1] < energies[0]


def test_harmonic_oscillator_ground_state():
    # undriven, uncoupled: exact energy w/2 - epsilon and width <x^2> = 1/w
    eps = 2.0
    params = ModelParams(omega_R=0.0, delta=0.0, epsilon=eps, N=100.0)
    prob = build_problem(params, TRAP, None, GridSpec((256,), (32.0,)))
    res = imaginary_time_ground_state(prob, dt=0.01, tol=1e-12, seed=1)
    w = TRAP.frequency_ratio(0)
    assert abs(res.energy - (0.5 * w - eps)) <= 1e-6
    rm, r0, rp = field_populations(res.field)
    assert abs(r0 - 1.0) <= 1e-8
    # diagnostics: the last iteration's energy change met tol, and the field is
    # an eigenstate, unlike the seed it started from
    assert 0.0 <= res.last_change < 1e-12
    assert res.residual <= 1e-4
    assert prob.residual(prob.initial_field(seed=1)) > 100.0 * res.residual
    x = res.field.axes[0]
    dens = np.sum(np.abs(res.field.psi) ** 2, axis=0)
    x2 = float(np.sum(x * x * dens) * res.field.dv)
    # the minimizer carries no step-size bias: the width is off by about 3e-5
    assert abs(x2 - 1.0 / w) <= 1e-4


def test_free_ground_state_sits_at_band_bottom():
    # no trap, no interactions: the relaxed energy is the lowest branch
    # minimum over the grid momenta
    params = ModelParams(omega_R=2.0, delta=0.0, epsilon=0.0, N=100.0)
    prob = build_problem(params, None, None, GridSpec((128,), (16.0,)))
    res = imaginary_time_ground_state(prob, dt=0.02, tol=1e-12, seed=2)
    k_grid = 2.0 * math.pi * np.fft.fftfreq(128, d=32.0 / 128)
    bands = branch_energies(np.sort(k_grid), params)
    assert abs(res.energy - float(np.min(bands[:, 0]))) <= 1e-8


def test_detuning_polarizes_toward_plus_one():
    params = ModelParams(omega_R=1.0, delta=0.5, epsilon=0.0, N=100.0)
    prob = build_problem(params, TRAP, None, GridSpec((128,), (24.0,)))
    res = imaginary_time_ground_state(prob, dt=0.01, tol=1e-10, seed=4)
    rm, r0, rp = field_populations(res.field)
    assert rp > rm
    assert rp > 0.5


def test_unconverged_run_raises_with_trace():
    # this case needs 13 iterations to reach tol 1e-16
    params = ModelParams(omega_R=2.0, delta=0.5, epsilon=1.0, N=100.0)
    prob = build_problem(params, TRAP, None, GridSpec((128,), (24.0,)))
    with pytest.raises(ConvergenceError) as err:
        imaginary_time_ground_state(prob, dt=0.01, tol=1e-16, max_steps=5)
    assert "trace" in err.value.context


def _count_steps(prob, poison_at=None):
    """Wrap prob.step so that every call records its field argument in the
    returned list; call number ``poison_at`` steps along an infinite direction."""
    calls = []
    step = prob.step

    def counted(flat, direction, theta):
        calls.append(flat.copy())
        if len(calls) == poison_at:
            direction = direction * np.inf
        return step(flat, direction, theta)

    prob.step = counted
    return calls


def test_run_stops_at_max_steps_inside_a_check_block():
    params = ModelParams(omega_R=2.0, delta=0.5, epsilon=1.0, N=100.0)
    prob = build_problem(params, TRAP, None, GridSpec((128,), (24.0,)))
    calls = _count_steps(prob)
    with pytest.raises(ConvergenceError, match="within 10 steps") as err:
        imaginary_time_ground_state(prob, dt=0.01, tol=1e-16, max_steps=10, check_every=50)
    # every first trial angle was accepted here, so one trial per iteration
    assert len(calls) == 10
    assert err.value.context["step"] == 10
    assert [int(s) for s in err.value.context["trace"][:, 0]] == [0, 10]


def test_non_finite_energy_aborts_with_last_good_state():
    # a trial field that is not finite stops the run at that iteration,
    # without a numpy warning, and hands back the last accepted field
    params = ModelParams(omega_R=1.0, delta=0.0, epsilon=1.0, N=1e5)
    attractive = InteractionConfig(-101.8, -100.4, 1e5)
    prob = build_problem(params, TRAP, attractive, GridSpec((256,), (48.0,)))
    assert prob.c0 < 0.0
    calls = _count_steps(prob, poison_at=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="non-finite") as err:
            imaginary_time_ground_state(prob, dt=0.5, tol=1e-8, check_every=10)
    ctx = err.value.context
    # an iteration may try several angles from the same field
    iterations = 1 + sum(not np.array_equal(a, b) for a, b in zip(calls, calls[1:]))
    assert len(calls) == 3 and ctx["step"] == iterations >= 2
    assert ctx["last_good"].shape == (3, 256)
    assert np.all(np.isfinite(ctx["last_good"]))
    assert np.array_equal(ctx["last_good"], calls[-1])


def test_stalled_line_search_raises():
    # a step that never lowers the energy exhausts the halvings and raises
    params = ModelParams(omega_R=2.0, delta=0.5, epsilon=1.0, N=100.0)
    prob = build_problem(params, TRAP, None, GridSpec((128,), (24.0,)))
    step = prob.step
    calls = []

    def uphill(flat, direction, theta):
        calls.append(theta)
        trial, h_psi, _ = step(flat, direction, theta)
        return trial, h_psi, 1e6

    prob.step = uphill
    with pytest.raises(ConvergenceError, match="line search") as err:
        imaginary_time_ground_state(prob, tol=1e-10, seed=2)
    assert err.value.context["step"] == 1
    assert len(calls) == MAX_BACKTRACKS
    assert calls[-1] == calls[0] * 0.5 ** (MAX_BACKTRACKS - 1)


DETUNED = ModelParams(omega_R=2.0, delta=2.0, epsilon=0.0, N=100000)
C11_GRID = GridSpec((1024,), (160.0,))


def test_detuned_ground_state_does_not_depend_on_the_seed():
    # the criterion-11 detuned case has a soft mode, so a run that stopped short
    # of the minimum would end at an energy that depends on the seed
    prob = build_problem(DETUNED, TRAP, RB, C11_GRID)
    e0, e7 = (imaginary_time_ground_state(prob, dt=0.02, tol=1e-7, seed=s).energy for s in (0, 7))
    assert abs(e0 - e7) <= 1e-8 * abs(e7)


def _grid_band_minimum(params, grid):
    """The momentum of the grid's coupled axis where an independent eigvalsh of the
    band Hamiltonian is lowest, and the grid's momentum step."""
    n, extent = grid.n_points[0], grid.extent[0]
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=2.0 * extent / n)
    return k[int(np.argmin(np.linalg.eigvalsh(build_hamiltonian(k, params))[:, 0]))], k[1]


def _seed_peak(prob, seed):
    """The momentum where the seed's power spectrum peaks, and its spinor there."""
    psi_k = np.fft.fft(prob.initial_field(seed).psi, axis=1)
    dx = prob.axes[0][1] - prob.axes[0][0]
    k = 2.0 * math.pi * np.fft.fftfreq(prob.shape[0], d=dx)
    peak = int(np.argmax(np.sum(np.abs(psi_k) ** 2, axis=0)))
    return k[peak], psi_k[:, peak] / np.linalg.norm(psi_k[:, peak])


def test_seed_is_the_band_spinor_at_the_band_minimum():
    # the detuned criterion-11 case has its band minimum at k0 = -1.944: the seed
    # carries the grid momentum nearest it and the lowest band's spinor there
    prob = build_problem(DETUNED, TRAP, RB, C11_GRID)
    k_grid, dk = _grid_band_minimum(DETUNED, C11_GRID)
    k0 = classify(DETUNED).k_min
    assert prob.seed_k == k_grid and abs(k0 + 1.944) <= 1e-3
    assert abs(prob.seed_k - k0) <= 0.5 * dk
    v_seed = np.linalg.eigh(build_hamiltonian(prob.seed_k, DETUNED))[1][:, 0]
    assert abs(abs(np.vdot(v_seed, prob.seed_spinor)) - 1.0) <= 1e-12
    peak, spinor = _seed_peak(prob, 3)
    assert abs(peak - k0) <= dk
    v0 = np.linalg.eigh(build_hamiltonian(k0, DETUNED))[1][:, 0]
    assert abs(np.vdot(v0, spinor)) >= 0.99


def test_coarse_grid_seeds_at_its_own_band_minimum():
    # a 16-point grid on extent 160 reaches only |k| <= pi / dx = 0.157, short of
    # the band minimum at -1.944: the seed sits at that grid's lowest-band momentum
    grid = GridSpec((16,), (160.0,))
    prob = build_problem(DETUNED, TRAP, RB, grid)
    k_grid, _ = _grid_band_minimum(DETUNED, grid)
    assert prob.seed_k == k_grid and abs(k_grid) < abs(classify(DETUNED).k_min)
    v_seed = np.linalg.eigh(build_hamiltonian(k_grid, DETUNED))[1][:, 0]
    assert abs(abs(np.vdot(v_seed, prob.seed_spinor)) - 1.0) <= 1e-12
    for seed in (0, 7):
        peak, spinor = _seed_peak(prob, seed)
        assert abs(peak - k_grid) <= 1e-12 and abs(np.vdot(v_seed, spinor)) >= 0.99


def test_tied_minima_reach_the_plane_wave():
    # at (omega_R, delta, epsilon) = (2, 0, -2) the band minima at +-1.943 tie; a
    # seed on one of them reaches the plane wave at E = 3.748426, below the stripe
    # (3.76106) that a seed on both converges to
    params = ModelParams(omega_R=2.0, delta=0.0, epsilon=-2.0, N=100000)
    prob = build_problem(params, TRAP, RB, C11_GRID)
    assert classify(params).degenerate and abs(abs(prob.seed_k) - 1.943) <= 1e-3
    res = imaginary_time_ground_state(prob, dt=0.02, tol=1e-7, seed=7)
    assert res.energy <= 3.748427


def test_populations_component_order():
    # a field entirely in the first component is the m=+1 state
    g = GridSpec((64,), (16.0,))
    x = g.axes()[0]
    psi = np.zeros((3, 64), dtype=complex)
    psi[0] = np.exp(-(x**2) / 8.0)
    f = SpinorField(psi, g.axes(), g.dv).normalized()
    rm, r0, rp = field_populations(f)
    assert abs(rp - 1.0) <= 1e-12 and abs(rm) <= 1e-12 and abs(r0) <= 1e-12


def test_hartree_moments_match_uniform_single_mode():
    # a spatially uniform spinor is a product state of one internal mode, so
    # the collective moments reduce to single-atom expectations times N
    chi = np.array([0.2 + 0.1j, 0.9, -0.3 + 0.2j])
    chi = chi / np.linalg.norm(chi)
    g = GridSpec((64,), (16.0,))
    psi = np.repeat(chi[:, None], 64, axis=1) / math.sqrt(2.0 * 16.0)
    f = SpinorField(psi.reshape(3, 64), g.axes(), g.dv)
    ms = gp_moment_set(f, 50)
    from socsqueeze.algebra import generator_stack

    stack = generator_stack()
    gbar = np.real(np.einsum("i,aij,j->a", chi.conj(), stack, chi))
    sym = np.real(np.einsum("i,aik,bkj,j->ab", chi.conj(), stack, stack, chi))
    sym = 0.5 * (sym + sym.T)
    mean_vec, cov_mat = ms.to_arrays()
    assert np.max(np.abs(mean_vec - 50 * gbar)) <= 1e-10
    assert np.max(np.abs(cov_mat - 50 * (sym - np.outer(gbar, gbar)))) <= 1e-9


def test_hartree_moments_need_a_positive_integral_atom_number():
    g = GridSpec((16,), (8.0,))
    f = SpinorField(np.ones((3, 16), complex), g.axes(), g.dv).normalized()
    for n_atoms in (0, -1, 2.5):
        with pytest.raises(MomentInputError, match="positive integral N"):
            gp_moment_set(f, n_atoms)
    # an integral float scales the moments and is stored as an int
    ms = gp_moment_set(f, 1e5)
    assert type(ms.N) is int and ms.N == 100000
    assert np.array_equal(ms.means, gp_moment_set(f, 100000).means)


def test_field_and_moment_populations_agree():
    params = ModelParams(omega_R=1.5, delta=0.3, epsilon=1.0, N=1000.0)
    prob = build_problem(params, TRAP, None, GridSpec((128,), (24.0,)))
    res = imaginary_time_ground_state(prob, dt=0.02, tol=1e-9, seed=8)
    direct = field_populations(res.field)
    via_moments = moment_populations(gp_moment_set(res.field, 1000))
    assert np.max(np.abs(np.array(direct) - np.array(via_moments))) <= 1e-9


def test_checkpoint_roundtrip(tmp_path):
    params = ModelParams(omega_R=1.0, delta=0.2, epsilon=0.5, N=100.0)
    prob = build_problem(params, TRAP, None, GridSpec((64,), (24.0,)))
    f = prob.initial_field(seed=9)
    path = tmp_path / "field.npz"
    save_field(f, path, meta={"note": "checkpoint"})
    g = load_field(path)
    assert np.array_equal(f.psi, g.psi)
    assert f.dv == g.dv
    assert all(np.array_equal(a, b) for a, b in zip(f.axes, g.axes))
    m1, c1 = gp_moment_set(f, 100).to_arrays()
    m2, c2 = gp_moment_set(g, 100).to_arrays()
    assert np.array_equal(m1, m2) and np.array_equal(c1, c2)

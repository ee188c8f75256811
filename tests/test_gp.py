"""Spinor mean-field solver: configuration guards, exact solvable limits,
propagator oracles, and moment consistency."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from socsqueeze.algebra import generator_matrix
from socsqueeze.bands import branch_energies
from socsqueeze.errors import ConfigError, ConvergenceError
from socsqueeze.gp import (
    SOLVER_DEFAULTS,
    GridSpec,
    InteractionConfig,
    SpinorField,
    TrapConfig,
    build_problem,
    check_solver_settings,
    field_populations,
    gp_moment_set,
    imaginary_time_ground_state,
    load_field,
    mean_field_couplings,
    raman_recoil_momentum,
    save_field,
    spin_exponential,
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
    for n_atoms in (0.5, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            InteractionConfig(101.8, 100.4, n_atoms)
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
    with pytest.raises(ConfigError):
        mean_field_couplings(RB, None, 1)
    with pytest.raises(ConfigError):
        mean_field_couplings(RB, None, 3)
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


def test_only_periodic_boundaries():
    params = ModelParams(omega_R=0.0, delta=0.0, epsilon=0.0, N=100.0)
    with pytest.raises(ConfigError):
        build_problem(params, None, None, GridSpec((64,), (16.0,)), boundary="hard")


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


def test_kinetic_propagator_matches_expm():
    params = ModelParams(omega_R=1.7, delta=0.3, epsilon=2.0, N=100.0)
    prob = build_problem(params, None, None, GridSpec((32,), (8.0,)))
    prop = prob.kinetic_propagator(0.3)
    for m in (0, 5, 17, 31):
        direct = scipy.linalg.expm(-0.3 * prob.h1[m])
        assert np.max(np.abs(prop[m] - direct)) <= 1e-12


def _random_field(rng, m):
    return rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))


def test_spin_exponential_matches_expm():
    rng = np.random.default_rng(11)
    dt = 0.05
    a = rng.standard_normal((3, 8)) * np.array([0.1, 1.0, 5.0, 20.0, 1.0, 3.0, 0.5, 2.0])
    a[:, 0] = (3e-15, -4e-15, 1e-15)  # |a| < 1e-14: the series branch
    a[:, 1] = 0.0
    a[:, 2] = (120.0, -80.0, 200.0)   # dt |a| = 12.3
    psi = _random_field(rng, 8)
    got = spin_exponential(a, dt, psi)
    for m in range(8):
        direct = scipy.linalg.expm(-dt * np.einsum("s,sij->ij", a[:, m], J_STACK)) @ psi[:, m]
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(got[:, m] - direct)) <= 1e-12 * scale


def test_local_spin_density_matches_generator_einsum():
    params = ModelParams(omega_R=1.0, delta=0.0, epsilon=0.0, N=100.0)
    prob = build_problem(params, None, None, GridSpec((64,), (16.0,)))
    flat = _random_field(np.random.default_rng(12), 64)
    direct = np.einsum("sij,im,jm->sm", J_STACK, flat.conj(), flat).real
    closed = prob.local_spin_density(flat)
    assert closed.shape == (3, 64)
    assert np.max(np.abs(closed - direct)) <= 1e-14 * max(1.0, float(np.max(np.abs(direct))))


def _materialized_step(prob, flat, dt):
    """The split step with a 3x3 spin propagator built at every point."""
    half = prob.kinetic_propagator(0.5 * dt)
    flat = np.fft.ifft(np.einsum("mij,jm->im", half, np.fft.fft(flat, axis=1)), axis=1)
    n = np.sum(np.abs(flat) ** 2, axis=0)
    scalar = np.exp(-dt * (prob.v_trap + prob.c0 * n))
    a = prob.c2 * np.einsum("sij,im,jm->sm", J_STACK, flat.conj(), flat).real
    a_norm = np.sqrt(np.sum(a * a, axis=0))
    small = a_norm < 1e-14
    safe = np.where(small, 1.0, a_norm)
    sih = np.where(small, dt, np.sinh(dt * a_norm) / safe)
    coh = np.where(small, 0.5 * dt * dt, (np.cosh(dt * a_norm) - 1.0) / safe**2)
    aj = np.einsum("sm,sij->mij", a, J_STACK)
    prop = (np.eye(3, dtype=complex)[None, :, :] - sih[:, None, None] * aj
            + coh[:, None, None] * (aj @ aj))
    flat = scalar[None, :] * np.einsum("mij,jm->im", prop, flat)
    return np.fft.ifft(np.einsum("mij,jm->im", half, np.fft.fft(flat, axis=1)), axis=1)


def test_interacting_step_matches_materialized_propagator():
    params = ModelParams(omega_R=2.0, delta=0.5, epsilon=1.0, N=1e5)
    prob = build_problem(params, TRAP, RB, GridSpec((256,), (48.0,)))
    assert prob.c2 != 0.0
    flat = prob.initial_field(seed=5).psi.reshape(3, -1)
    for dt in (0.01, 0.2):
        got = prob.step(flat, dt)
        want = _materialized_step(prob, flat, dt)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_initial_field_is_normalized_and_reproducible():
    params = ModelParams(omega_R=1.0, delta=0.0, epsilon=0.0, N=100.0)
    prob = build_problem(params, TRAP, None, GridSpec((128,), (32.0,)))
    f1, f2 = prob.initial_field(seed=5), prob.initial_field(seed=5)
    assert abs(f1.norm() - 1.0) <= 1e-12
    assert np.array_equal(f1.psi, f2.psi)
    f3 = prob.initial_field(seed=6)
    assert not np.array_equal(f1.psi, f3.psi)


def test_imaginary_time_steps_lower_the_energy():
    params = ModelParams(omega_R=2.0, delta=0.5, epsilon=1.0, N=1e4)
    prob = build_problem(params, TRAP, InteractionConfig(101.8, 100.4, 1e4),
                         GridSpec((128,), (48.0,)))
    flat = prob.initial_field(seed=3).psi.reshape(3, -1)
    energies = []
    for _ in range(6):
        field = SpinorField(flat.reshape((3,) + prob.shape), prob.axes, prob.dv)
        energies.append(prob.energy(field))
        flat = prob.step(flat, 0.005)
        flat = flat / np.sqrt(np.sum(np.abs(flat) ** 2) * prob.dv)
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))


def test_harmonic_oscillator_ground_state():
    # undriven, uncoupled: exact energy w/2 - epsilon and width <x^2> = 1/w
    eps = 2.0
    params = ModelParams(omega_R=0.0, delta=0.0, epsilon=eps, N=100.0)
    prob = build_problem(params, TRAP, None, GridSpec((256,), (32.0,)))
    res = imaginary_time_ground_state(prob, dt=0.01, tol=1e-12, seed=1)
    w = TRAP.frequency_ratio(0)
    assert res.converged
    assert abs(res.energy - (0.5 * w - eps)) <= 1e-6
    rm, r0, rp = field_populations(res.field)
    assert abs(r0 - 1.0) <= 1e-8
    # diagnostics: the final check's per-step change met tol, and the field is
    # an eigenstate up to the splitting bias, unlike the seed it started from
    assert 0.0 <= res.last_change < 1e-12
    assert res.residual <= 1e-4
    assert prob.residual(prob.initial_field(seed=1)) > 100.0 * res.residual
    x = res.field.axes[0]
    dens = np.sum(np.abs(res.field.psi) ** 2, axis=0)
    x2 = float(np.sum(x * x * dens) * res.field.dv)
    # finite-dt bias of the splitting shifts the width at the 1e-3 level
    assert abs(x2 - 1.0 / w) <= 1e-2


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
    params = ModelParams(omega_R=2.0, delta=0.5, epsilon=1.0, N=100.0)
    prob = build_problem(params, TRAP, None, GridSpec((128,), (24.0,)))
    with pytest.raises(ConvergenceError) as err:
        imaginary_time_ground_state(prob, dt=0.01, tol=1e-16, max_steps=100)
    assert "trace" in err.value.context


def _count_steps(prob):
    """Wrap prob.step so that every call is counted in the returned list."""
    calls = []
    step = prob.step

    def counted(flat, dt):
        calls.append(dt)
        return step(flat, dt)

    prob.step = counted
    return calls


def test_run_stops_at_max_steps_inside_a_check_block():
    params = ModelParams(omega_R=2.0, delta=0.5, epsilon=1.0, N=100.0)
    prob = build_problem(params, TRAP, None, GridSpec((128,), (24.0,)))
    calls = _count_steps(prob)
    with pytest.raises(ConvergenceError, match="within 10 steps") as err:
        imaginary_time_ground_state(prob, dt=0.01, tol=1e-16, max_steps=10, check_every=50)
    assert len(calls) == 10
    assert [int(s) for s in err.value.context["trace"][:, 0]] == [0, 10]


def test_non_finite_energy_aborts_with_last_good_state():
    # attractive couplings with a large step blow the local factor up to inf;
    # the run stops at that step without a numpy warning
    params = ModelParams(omega_R=1.0, delta=0.0, epsilon=1.0, N=1e5)
    attractive = InteractionConfig(-101.8, -100.4, 1e5)
    prob = build_problem(params, TRAP, attractive, GridSpec((256,), (48.0,)))
    assert prob.c0 < 0.0
    calls = _count_steps(prob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="non-finite") as err:
            imaginary_time_ground_state(prob, dt=0.5, tol=1e-8, check_every=10)
    ctx = err.value.context
    assert ctx["step"] == len(calls) >= 1
    assert ctx["last_good"].shape == (3, 256)
    assert np.all(np.isfinite(ctx["last_good"]))


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

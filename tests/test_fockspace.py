"""Exact diagonalization: independent two-particle and dense oracles,
analytic moments, and the weight projection of the Gaussian and GP moment sets
alike."""

import functools
import itertools

import numpy as np
import pytest

from socsqueeze import fockspace
from socsqueeze.bands import dispersion
from socsqueeze.algebra import GENERATOR_LABELS, collective_weights, generator_matrix
from socsqueeze.config import DEFAULT_N_CAP, GridSpec, TrapConfig
from socsqueeze.errors import ConfigError, ConvergenceError, MomentInputError
from socsqueeze.fockspace import (
    RESIDUAL_TOL,
    build_effective_hamiltonian,
    ed_ground_state,
    SymmetricFockState,
    ed_moment_set,
    fock_basis,
)
from socsqueeze.gaussian import (
    _classical_minimum,
    gaussian_moment_set,
    hp_mean_field,
    solve_gaussian,
)
from socsqueeze.gp import SpinorField, build_problem, gp_moment_set, imaginary_time_ground_state
from socsqueeze.metrics import xi_x
from socsqueeze.params import EffectiveCoefficients, ModelParams, effective_coefficients


def two_particle_oracle_energy(coeffs):
    """Ground energy for N=2 built on the raw 9-dim product space.

    Constructs collective operators as G x I + I x G, projects onto the
    symmetric (bosonic) block, and diagonalizes densely.  Shares no code
    with the Fock-space implementation.
    """
    def coll(label):
        m = generator_matrix(label)
        return np.kron(m, np.eye(3)) + np.kron(np.eye(3), m)

    fz, fx, fy = coll("Jz"), coll("Jx"), coll("Y")
    h = -coeffs.q * fz @ fz + coeffs.hx * fx + coeffs.hz * fz + coeffs.hY * fy
    swap = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            swap[i * 3 + j, j * 3 + i] = 1.0
    w, v = np.linalg.eigh(swap)
    sym = v[:, w > 0.5]
    assert sym.shape[1] == 6
    return float(np.linalg.eigvalsh(sym.T @ h @ sym)[0])


def product_space_collective(matrix3, n):
    """G acting on each of n particles in turn, G x I x ... + ... + I x ... x G,
    on the raw 3^n product space."""
    total = 0.0
    for k in range(n):
        op = np.ones((1, 1))
        for j in range(n):
            op = np.kron(op, matrix3 if j == k else np.eye(3))
        total = total + op
    return total


def symmetric_projection_oracle(n):
    """Columns: the normalized symmetric states |n_plus, n_minus> of n spin-1
    particles in the product space, in lexicographic (n_plus, n_minus) order.

    Shares no code with the Fock-space implementation.
    """
    configs = list(itertools.product(range(3), repeat=n))  # mode 0 is +1, mode 2 is -1
    pairs = sorted({(c.count(0), c.count(2)) for c in configs})
    proj = np.zeros((len(configs), len(pairs)))
    for row, c in enumerate(configs):
        proj[row, pairs.index((c.count(0), c.count(2)))] = 1.0
    return proj / np.linalg.norm(proj, axis=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_operators_match_product_space_projection_oracle(n):
    proj = symmetric_projection_oracle(n)
    basis = fock_basis(n)
    x = np.random.default_rng(n).standard_normal((basis.dim, 2))
    for lbl in GENERATOR_LABELS:
        g = generator_matrix(lbl)
        expected = proj.T @ product_space_collective(g, n) @ proj
        op = basis.collective(g)
        assert np.max(np.abs(op.toarray() - expected)) <= 1e-12
        assert np.max(np.abs(op @ x - expected @ x)) <= 1e-12
        assert np.max(np.abs(op @ x[:, 0] - expected @ x[:, 0])) <= 1e-12
    coeffs = effective_coefficients(ModelParams(omega_R=2.0, delta=0.5, epsilon=6.0, N=n))
    fz, fx, fy = (product_space_collective(generator_matrix(lbl).real, n)
                  for lbl in ("Jz", "Jx", "Y"))
    h = proj.T @ (-coeffs.q * fz @ fz + coeffs.hx * fx + coeffs.hz * fz + coeffs.hY * fy) @ proj
    assert np.max(np.abs(build_effective_hamiltonian(coeffs, n).toarray() - h)) <= 1e-12 * n**2


def test_dense_oracle_is_the_applied_operator():
    # toarray() and op @ x both read the padded hop weights; column j of the
    # dense matrix is the product with the unit vector e_j
    basis = fock_basis(5)
    for lbl in GENERATOR_LABELS:
        op = basis.collective(generator_matrix(lbl))
        np.testing.assert_array_equal(op.toarray(), op @ np.eye(basis.dim), err_msg=lbl)
    coeffs = effective_coefficients(ModelParams(omega_R=2.0, delta=0.5, epsilon=6.0, N=7))
    h = build_effective_hamiltonian(coeffs, 7)
    dense = h.toarray()
    for j in range(h.basis.dim):
        np.testing.assert_array_equal(dense[:, j], h @ np.eye(h.basis.dim)[:, j])


def test_basis_dimension_and_lexicographic_order():
    basis = fock_basis(3)
    assert basis.dim == 10
    pairs = list(zip(basis.n_plus, basis.n_minus))
    assert pairs == sorted(pairs)
    assert basis.index(2, 1) == pairs.index((2, 1))
    assert np.all(basis.n_zero == 3 - basis.n_plus - basis.n_minus)


def test_transfer_matrices_satisfy_bosonic_algebra():
    basis = fock_basis(4)
    e_plus, e_zero = np.eye(3)[0], np.eye(3)[1]
    tp0 = basis.collective(np.outer(e_plus, e_zero)).toarray()
    t0p = basis.collective(np.outer(e_zero, e_plus)).toarray()
    # [a0^dag a+, a+^dag a0] = n0 - n+ on the symmetric subspace
    comm = t0p @ tp0 - tp0 @ t0p
    expected = np.diag(basis.n_zero - basis.n_plus).astype(float)
    assert np.max(np.abs(comm - expected)) <= 1e-12


def test_collective_operators_are_hermitian_and_close_algebra():
    basis = fock_basis(5)
    ops = {lbl: basis.collective(generator_matrix(lbl)).toarray() for lbl in GENERATOR_LABELS}
    for m in ops.values():
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    # collective operators inherit the single-particle commutators
    dev = ops["Jy"] @ ops["Jz"] - ops["Jz"] @ ops["Jy"] - 1j * ops["Jx"]
    assert np.max(np.abs(dev)) <= 1e-12
    dev = ops["Qyz"] @ ops["Y"] - ops["Y"] @ ops["Qyz"] - np.sqrt(3.0) * 1j * ops["Jx"]
    assert np.max(np.abs(dev)) <= 1e-12


def test_ground_energy_matches_two_particle_oracle():
    coeffs = effective_coefficients(ModelParams(omega_R=2.0, delta=1.0, epsilon=6.0, N=2))
    state = ed_ground_state(coeffs, 2)
    assert abs(state.energy - two_particle_oracle_energy(coeffs)) <= 1e-10


def test_ground_state_normalized_with_real_positive_gauge():
    coeffs = effective_coefficients(ModelParams(omega_R=1.5, delta=0.3, epsilon=2.0, N=30))
    state = ed_ground_state(coeffs, 30)
    amp = state.amplitudes
    assert abs(np.linalg.norm(amp) - 1.0) <= 1e-12
    i0 = int(np.argmax(np.abs(amp)))
    assert amp[i0].real > 0.0
    assert abs(amp[i0].imag) <= 1e-12


def test_uncoupled_ground_state_is_single_fock_state():
    # Omega_R = 0, positive quadratic shift: every atom sits in the middle mode
    n = 40
    coeffs = effective_coefficients(ModelParams(omega_R=0.0, delta=0.0, epsilon=6.0, N=n))
    state = ed_ground_state(coeffs, n)
    basis = state.basis
    i = basis.index(0, 0)
    assert abs(abs(state.amplitudes[i]) - 1.0) <= 1e-12
    moments = ed_moment_set(state)
    # frozen analytic moments of |0, N, 0>
    assert abs(moments.cov("Jx", "Jx") - n) <= 1e-9
    assert abs(moments.mean("Y") + 2.0 * n / np.sqrt(3.0)) <= 1e-9
    assert abs(moments.mean("Jz")) <= 1e-12
    assert abs(xi_x(moments) - 1.0) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 40])
def test_diagonal_hamiltonian_krylov_breakdown(n):
    # at Omega_R = 0, H is diagonal and the start vector is its ground space,
    # so the Krylov space closes (beta = 0) at the first step, within the
    # bound of as many steps as H has distinct diagonal values
    coeffs = effective_coefficients(ModelParams(omega_R=0.0, delta=0.5, epsilon=6.0, N=n))
    diag = np.diag(build_effective_hamiltonian(coeffs, n).toarray())
    state = ed_ground_state(coeffs, n)
    assert 1 <= state.iterations <= len(np.unique(diag))
    assert abs(state.energy - diag.min()) <= 1e-12 * max(1.0, abs(diag.min()))
    assert abs(state.amplitudes[state.basis.index(0, 0)] - 1.0) <= 1e-12
    assert state.residual <= RESIDUAL_TOL * max(1.0, abs(state.energy))


def test_lanczos_step_cap_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(fockspace, "MAX_LANCZOS_STEPS", 2)
    coeffs = effective_coefficients(ModelParams(omega_R=2.0, delta=0.5, epsilon=6.0, N=20))
    with pytest.raises(ConvergenceError) as info:
        ed_ground_state(coeffs, 20)
    assert info.value.context["N"] == 20 and info.value.context["steps"] == 2


def test_dense_and_lanczos_paths_agree():
    # compare the Lanczos solve against a dense solve of the same Hamiltonian
    coeffs = effective_coefficients(ModelParams(omega_R=2.0, delta=0.5, epsilon=6.0, N=62))
    sparse_state = ed_ground_state(coeffs, 62)
    import scipy.linalg

    h = build_effective_hamiltonian(coeffs, 62).toarray()
    w = scipy.linalg.eigvalsh(h, subset_by_index=[0, 0])
    assert abs(sparse_state.energy - float(w[0])) <= 1e-9


@pytest.mark.parametrize("n", [1, 3, 61])
def test_single_real_lanczos_path_matches_dense_oracle(n):
    # the smallest bases, and N = 61 next to the N = 62 case above: one solver
    # path on both sides, with no size cutoff between them
    import scipy.linalg

    coeffs = effective_coefficients(ModelParams(omega_R=2.0, delta=0.5, epsilon=6.0, N=n))
    state = ed_ground_state(coeffs, n)
    h = build_effective_hamiltonian(coeffs, n)
    dense = h.toarray()
    assert np.dtype(h.dtype) == np.float64 and dense.dtype == np.float64
    w = scipy.linalg.eigvalsh(dense, subset_by_index=[0, 0])
    assert abs(state.energy - float(w[0])) <= 1e-9
    assert not np.iscomplexobj(state.amplitudes)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12
    assert state.amplitudes[int(np.argmax(np.abs(state.amplitudes)))] > 0.0
    assert state.residual <= RESIDUAL_TOL * max(1.0, abs(state.energy))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_lanczos_matches_dense_oracle_at_small_n(n):
    # the small-N slice of a 1 050-point scan: N = 5 and 10 used to fail at 25
    # of these points, where Lanczos converged just after a Ritz check and
    # ghost copies of the converged value had formed by the next one
    for omega_r, delta, eps in itertools.product((0.0, 0.5, 1.0, 2.0, 3.0), (-2.0, 0.0, 1.0),
                                                 range(-6, 7, 2)):
        coeffs = effective_coefficients(
            ModelParams(omega_R=omega_r, delta=delta, epsilon=float(eps), N=n))
        state = ed_ground_state(coeffs, n)
        exact = np.linalg.eigvalsh(build_effective_hamiltonian(coeffs, n).toarray())[0]
        assert abs(state.energy - exact) <= 1e-12 * max(1.0, abs(exact)), (omega_r, delta, eps)


def test_start_does_not_return_an_excited_state_at_n1():
    # the uniform start vector is an exact excited eigenvector here, so a solve
    # from it stopped at step 1 with E = -2.667 against the dense -8.667
    coeffs = effective_coefficients(ModelParams(omega_R=4.0, delta=0.0, epsilon=6.0, N=1))
    state = ed_ground_state(coeffs, 1)
    exact = np.linalg.eigvalsh(build_effective_hamiltonian(coeffs, 1).toarray())[0]
    assert abs(state.energy - exact) <= 1e-12 * max(1.0, abs(exact))
    assert abs(exact + 26.0 / 3.0) <= 1e-12


@pytest.mark.parametrize("n,omega_r,delta,eps", [(3, 0.5, -2.0, -2.0), (100, 0.5, 1.0, -4.0)])
def test_ghost_fallback_assembles_a_second_ritz_vector(monkeypatch, n, omega_r, delta, eps):
    # two of the 16 points of a 1 764-point scan where the first assembled
    # pair fails the residual test and the pair of the first passing
    # estimate, before any ghost copy, is assembled instead
    residuals, ritz_vector = [], fockspace._ritz_vector

    def counted(*args):
        energy, psi, residual = ritz_vector(*args)
        residuals.append((energy, residual))
        return energy, psi, residual

    monkeypatch.setattr(fockspace, "_ritz_vector", counted)
    coeffs = effective_coefficients(ModelParams(omega_R=omega_r, delta=delta, epsilon=eps, N=n))
    state = ed_ground_state(coeffs, n)
    assert len(residuals) == 2
    (first_energy, first), (energy, residual) = residuals
    assert first > RESIDUAL_TOL * max(1.0, abs(first_energy))
    assert residual <= RESIDUAL_TOL * max(1.0, abs(energy))
    assert (state.energy, state.residual) == (energy, residual)
    if n == 3:
        exact = np.linalg.eigvalsh(build_effective_hamiltonian(coeffs, n).toarray())[0]
        assert abs(state.energy - exact) <= 1e-12 * max(1.0, abs(exact))


def oracle_points(n):
    """Coefficient sets of the dense-oracle sweep at atom number n: omega_R = 0,
    depleted (less than half of the atoms in the central mode) and
    mirror-degenerate (tied) classical minima, delta != 0, and the same drives
    and fields with q < 0."""
    points = [effective_coefficients(ModelParams(omega_R=om, delta=d, epsilon=eps, N=n))
              for om, d, eps in itertools.product((0.0, 0.5, 2.0, 4.0), (0.0, 0.7),
                                                  (-6.0, -4.0, 0.0, 4.0, 6.0))]
    for om, d, eps in itertools.product((0.0, 1.0), (0.0, 0.7), (-6.0, -2.0, 6.0)):
        c = effective_coefficients(ModelParams(omega_R=om, delta=d, epsilon=eps, N=n))
        points.append(EffectiveCoefficients(q=-c.q, hx=c.hx, hz=c.hz, hY=c.hY))
    return points


@functools.lru_cache(maxsize=None)
def dense_ground_space(coeffs, n):
    """Lowest eigenvalue, its eigenvectors (columns, within 1e-9 relative) and
    the gap to the next distinct eigenvalue, by dense eigh."""
    w, v = np.linalg.eigh(build_effective_hamiltonian(coeffs, n).toarray())
    ground = w - w[0] <= 1e-9 * max(1.0, abs(w[0]))
    gap = w[~ground][0] - w[0] if not ground.all() else np.inf
    return w[0], v[:, ground], gap


@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_ed_matches_dense_oracle_over_start_sweep(n):
    kinds = set()
    for coeffs in oracle_points(n):
        z, _, _ = _classical_minimum(coeffs, n)
        kinds.update(kind for kind, hit in (
            ("omega_R = 0", coeffs.hx == 0.0), ("q < 0", coeffs.q < 0.0),
            ("tied, omega_R != 0", len(z) > 1 and coeffs.hx != 0.0),
            ("depleted", z[0, 1] ** 2 < 0.5)) if hit)
        state = ed_ground_state(coeffs, n)
        exact, ground, gap = dense_ground_space(coeffs, n)
        assert abs(state.energy - exact) <= 1e-12 * max(1.0, abs(exact)), coeffs
        assert state.residual <= RESIDUAL_TOL * max(1.0, abs(state.energy))
        if ground.shape[1] == 1 and gap > 1e-3:
            got = ed_moment_set(state)
            dense = ed_moment_set(SymmetricFockState(n, ground[:, 0], exact, 0.0, 0))
            assert np.max(np.abs(got.means - dense.means)) <= 1e-9 * n**2, coeffs
            assert np.max(np.abs(got.covariances - dense.covariances)) <= 1e-9 * n**2, coeffs
    assert kinds == {"omega_R = 0", "q < 0", "tied, omega_R != 0", "depleted"}


@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_start_overlaps_dense_ground_state(n):
    basis = fock_basis(n)
    for coeffs in oracle_points(n):
        h = build_effective_hamiltonian(coeffs, n)
        v0 = fockspace._start_vector(coeffs, h)[basis.pad_index]
        _, ground, _ = dense_ground_space(coeffs, n)
        overlap = np.linalg.norm(ground.T @ v0)
        if coeffs.hx == 0.0:
            # H is diagonal and the start lies in its ground space
            assert abs(overlap - 1.0) <= 1e-12, coeffs
            continue
        assert overlap > 0.0, coeffs
        # Perron-Frobenius: in the gauge (-sign hx)^n0 every component of the
        # start is positive, and so is the ground state; a mirror pair's
        # tunnelling splitting can fall below the dense ground-space tolerance,
        # and then only the projection above is gauge-free
        gauge = (-np.sign(coeffs.hx)) ** basis.n_zero
        start = gauge * v0 * np.sign(gauge @ v0)
        assert np.all(start > 0.0), coeffs
        if ground.shape[1] == 1:
            psi = gauge * ground[:, 0]
            assert start @ (psi * np.sign(psi.sum())) > 0.0, coeffs


def test_threefold_tied_vertices_give_symmetric_representative():
    # at omega_R = 0, epsilon = 4 (hY = qN / sqrt(3)) the three single-mode
    # Fock states tie; the start is their normalized sum, which is exact
    n = 200
    coeffs = effective_coefficients(ModelParams(omega_R=0.0, delta=0.0, epsilon=4.0, N=n))
    assert len(_classical_minimum(coeffs, n)[0]) == 3
    state = ed_ground_state(coeffs, n)
    basis = state.basis
    vertices = [basis.index(0, 0), basis.index(n, 0), basis.index(0, n)]
    assert np.max(np.abs(state.amplitudes[vertices] - 1.0 / np.sqrt(3.0))) <= 1e-12
    assert np.sum(state.amplitudes**2) - np.sum(state.amplitudes[vertices] ** 2) <= 1e-24
    assert state.iterations == 1


def test_cached_operator_moments_match_freshly_built_operators():
    coeffs = effective_coefficients(ModelParams(omega_R=2.0, delta=0.7, epsilon=4.0, N=20))
    state = ed_ground_state(coeffs, 20)
    psi = state.amplitudes
    applied = [state.basis.collective(generator_matrix(lbl)) @ psi for lbl in GENERATOR_LABELS]
    means = np.array([np.vdot(psi, w).real for w in applied])
    cov = np.array([[np.vdot(wi, wj).real for wj in applied] for wi in applied])
    cov -= np.outer(means, means)
    moments = ed_moment_set(state)
    for i, a in enumerate(GENERATOR_LABELS):
        assert abs(moments.mean(a) - means[i]) <= 1e-12
        for j, b in enumerate(GENERATOR_LABELS):
            assert abs(moments.cov(a, b) - cov[i, j]) <= 1e-12


def test_moments_variance_floor_and_psd():
    coeffs = effective_coefficients(ModelParams(omega_R=2.0, delta=0.0, epsilon=6.0, N=60))
    state = ed_ground_state(coeffs, 60)
    moments = ed_moment_set(state).validate()
    for lbl in GENERATOR_LABELS:
        assert moments.cov(lbl, lbl) >= 0.0


def test_energy_non_increasing_in_coupling():
    # stronger transverse drive can only lower the variational ground energy
    energies = []
    for omr in (0.0, 1.0, 2.0, 3.0):
        coeffs = effective_coefficients(ModelParams(omega_R=omr, delta=0.0, epsilon=6.0, N=25))
        energies.append(ed_ground_state(coeffs, 25).energy)
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_atom_cap_enforced(monkeypatch):
    # the library cap raises before any basis is built
    def no_basis(n_atoms):
        raise AssertionError(f"a basis was built for N={n_atoms}")

    monkeypatch.setattr(fockspace, "fock_basis", no_basis)
    n = DEFAULT_N_CAP + 1
    coeffs = effective_coefficients(ModelParams(omega_R=1.0, delta=0.0, epsilon=6.0, N=n))
    with pytest.raises(ConfigError):
        ed_ground_state(coeffs, n)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 2.5, 0, -3])
def test_model_params_reject_non_integral_atom_numbers(bad):
    with pytest.raises(ConfigError):
        ModelParams(omega_R=1.0, delta=0.0, epsilon=6.0, N=bad)


def test_model_params_accept_integral_float_atom_number():
    assert ModelParams(omega_R=1.0, delta=0.0, epsilon=6.0, N=200.0).N == 200


def test_model_params_replace_validates_the_copy():
    params = ModelParams(omega_R=1.0, delta=0.5, epsilon=6.0, N=40)
    assert params.replace(delta=2.0) == ModelParams(omega_R=1.0, delta=2.0, epsilon=6.0, N=40)
    with pytest.raises(ConfigError):
        params.replace(omega_R=float("nan"))
    with pytest.raises(ConfigError):
        params.replace(N=2.5)


def _ed_backend():
    coeffs = effective_coefficients(ModelParams(omega_R=2.0, delta=0.7, epsilon=4.0, N=20))
    state = ed_ground_state(coeffs, 20)
    return ed_moment_set(state)


def _gaussian_backend():
    # epsilon = 6: at epsilon = 4 this drive and detuning deplete the central mode
    coeffs = effective_coefficients(ModelParams(omega_R=2.0, delta=0.7, epsilon=6.0, N=20))
    sol = solve_gaussian(coeffs, 20)
    return gaussian_moment_set(sol)


def _gp_backend():
    grid = GridSpec((16,), (8.0,))
    psi = np.random.default_rng(5).standard_normal((3, 16)) + 0.3j
    field = SpinorField(psi, grid.axes(), grid.dv).normalized()
    return gp_moment_set(field, 20)


BACKENDS = {"ed": _ed_backend, "gaussian": _gaussian_backend, "gp": _gp_backend}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_moments_of_weighted_spec_match_label_combination(backend):
    moments = BACKENDS[backend]()
    weights = collective_weights({"Jx": 0.6, "Jy": -0.8})
    means, cov = moments.project([weights, collective_weights({"Qzx": 1.0})])
    expect_mean = 0.6 * moments.mean("Jx") - 0.8 * moments.mean("Jy")
    expect_var = (
        0.36 * moments.cov("Jx", "Jx")
        + 0.64 * moments.cov("Jy", "Jy")
        - 2.0 * 0.48 * moments.cov("Jx", "Jy")
    )
    assert abs(means[0] - expect_mean) <= 1e-9
    assert abs(cov[0, 0] - expect_var) <= 1e-9
    # a unit weight is the observable of its label
    assert abs(means[1] - moments.mean("Qzx")) <= 1e-9
    assert abs(cov[1, 1] - moments.cov("Qzx", "Qzx")) <= 1e-9
    expect_cross = 0.6 * moments.cov("Jx", "Qzx") - 0.8 * moments.cov("Jy", "Qzx")
    assert abs(cov[0, 1] - expect_cross) <= 1e-9


UNIT_JX = collective_weights({"Jx": 1.0})

# weights that are not finite real rows of shape (k, 8), the 3x3 matrix of an
# observable among them
MALFORMED_WEIGHTS = {
    "matrix": generator_matrix("Jx"),
    "real-matrix": generator_matrix("Jx").real,
    "one-row-unwrapped": UNIT_JX,
    "seven-columns": [UNIT_JX[:7]],
    "no-rows": np.zeros((0, 8)),
    "ragged": [UNIT_JX, UNIT_JX[:7]],
    "nan": [np.where(UNIT_JX == 0.0, UNIT_JX, np.nan)],
    "inf": [np.where(UNIT_JX == 0.0, UNIT_JX, np.inf)],
    "minus-inf": [np.where(UNIT_JX == 0.0, UNIT_JX, -np.inf)],
    "complex": [UNIT_JX * (1.0 + 0.5j)],
    "complex-zero-imaginary": [UNIT_JX.astype(complex)],
    "labels": [["Jx"] * 8],
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_project_refuses_malformed_weights(backend):
    moments = BACKENDS[backend]()
    for case, weights in MALFORMED_WEIGHTS.items():
        with pytest.raises(MomentInputError, match=r"weights of shape \(k, 8\)"):
            moments.project(weights)
    # the refusal is of the weights: one well-formed row projects
    means, _ = moments.project([UNIT_JX])
    assert means[0] == moments.mean("Jx")


def test_equality_of_array_results_is_identity():
    # results that hold arrays compare by identity: == of two identical
    # calls is False and never asks an array for its truth value
    params = ModelParams(omega_R=2.0, delta=0.7, epsilon=6.0, N=20)
    coeffs = effective_coefficients(params)
    grid = GridSpec((16,), (8.0,))
    trap = TrapConfig(150.0, 150.0, 1500.0, recoil_frequency=3678.0)
    calls = {
        "dispersion": lambda: dispersion(params, n_points=101),
        "hp_mean_field": lambda: hp_mean_field(coeffs, 20),
        "solve_gaussian": lambda: solve_gaussian(coeffs, 20),
        "ed_ground_state": lambda: ed_ground_state(coeffs, 20),
        "ed_moment_set": lambda: ed_moment_set(ed_ground_state(coeffs, 20)),
        "field": lambda: SpinorField(np.ones((3, 16), complex), grid.axes(), grid.dv),
        "gp_ground_state": lambda: imaginary_time_ground_state(
            build_problem(params.replace(N=100), trap, None, GridSpec((64,), (24.0,))),
            dt=0.02, tol=1e-7, seed=7),
    }
    for name, call in calls.items():
        a, b = call(), call()
        assert a == a and not a == b and a != b, name


@pytest.mark.parametrize("n_atoms", [40, 300])
def test_lanczos_overflow_is_named_without_a_warning(n_atoms):
    # at omega_R = 1e200 or 1e300 the first Lanczos beta squares past float64:
    # the solve stops there with the overflow named, before the next step
    # multiplies by an infinite beta (a RuntimeWarning, then a NaN residual)
    for omega_r in (1e200, 1e300):
        coeffs = effective_coefficients(ModelParams(omega_R=omega_r, delta=0.0, epsilon=6.0,
                                                    N=n_atoms))
        with pytest.raises(ConvergenceError, match="the Lanczos recurrence overflows float64"
                           ) as err:
            ed_ground_state(coeffs, n_atoms)
        assert err.value.context == {"steps": 1, "N": n_atoms, "coeffs": coeffs}

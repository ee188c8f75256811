"""Mean field and Gaussian expansion: derivative oracles, vacuum limits,
symplectic purity, agreement with exact diagonalization, the mean-field
search against a multi-start BFGS oracle, and the generator moments against
a hand-derived, per-generator oracle."""

import numpy as np
import pytest
import scipy.optimize

from socsqueeze.errors import (
    ConfigError,
    ConvergenceError,
    DepletedCondensateError,
    UnstableExpansionError,
)
from socsqueeze.algebra import GENERATOR_LABELS, generator_matrix, generator_stack
from socsqueeze.fockspace import ed_ground_state, ed_moment_set
from socsqueeze.gaussian import (
    GRAD_TOL_ACCEPT,
    MIN_CENTRAL_OCCUPATION,
    OMEGA,
    _symbol,
    classical_energy,
    classical_gradient,
    classical_hessian,
    gaussian_moment_set,
    hp_mean_field,
    hp_quadratic,
    solve_gaussian,
)
from socsqueeze.metrics import GENERATOR_SPECS, MomentSet, populations, spec_moments, xi_x
from socsqueeze.params import EffectiveCoefficients, ModelParams, effective_coefficients

COEFFS = effective_coefficients(ModelParams(omega_R=2.0, delta=0.5, epsilon=6.0, N=100))


def _symbol_pieces(matrix3, u, n_atoms):
    """Oracle: value, gradient and Hessian of one generator's classical symbol,
    derived by hand in the four real mode coordinates u (unscaled, so |u|^2
    counts atoms)."""
    s_t = np.sqrt(max(n_atoms - u @ u, 1e-14))
    gpp = matrix3[0, 0].real
    g00 = matrix3[1, 1].real
    gmm = matrix3[2, 2].real
    gp0 = complex(matrix3[0, 1])
    gm0 = complex(matrix3[2, 1])
    gpm = complex(matrix3[0, 2])

    rho_p = u[0] ** 2 + u[1] ** 2
    rho_m = u[2] ** 2 + u[3] ** 2
    ell = 2.0 * np.array([gp0.real, gp0.imag, gm0.real, gm0.imag])
    lin = float(ell @ u)
    cross = 2.0 * (
        gpm.real * (u[0] * u[2] + u[1] * u[3])
        - gpm.imag * (u[0] * u[3] - u[1] * u[2])
    )
    value = (
        g00 * (n_atoms - rho_p - rho_m)
        + gpp * rho_p + gmm * rho_m + s_t * lin + cross
    )

    grad = (
        -2.0 * g00 * u
        + 2.0 * gpp * np.array([u[0], u[1], 0.0, 0.0])
        + 2.0 * gmm * np.array([0.0, 0.0, u[2], u[3]])
        + s_t * ell - (lin / s_t) * u
        + 2.0 * gpm.real * np.array([u[2], u[3], u[0], u[1]])
        - 2.0 * gpm.imag * np.array([u[3], -u[2], -u[1], u[0]])
    )

    eye = np.eye(4)
    hess = -2.0 * g00 * eye + 2.0 * gpp * np.diag([1.0, 1.0, 0.0, 0.0])
    hess = hess + 2.0 * gmm * np.diag([0.0, 0.0, 1.0, 1.0])
    hess = hess - (np.outer(ell, u) + np.outer(u, ell)) / s_t
    hess = hess - lin * (eye / s_t + np.outer(u, u) / s_t**3)
    re_block = np.zeros((4, 4))
    re_block[0, 2] = re_block[2, 0] = re_block[1, 3] = re_block[3, 1] = 1.0
    im_block = np.zeros((4, 4))
    im_block[0, 3] = im_block[3, 0] = -1.0
    im_block[1, 2] = im_block[2, 1] = 1.0
    hess = hess + 2.0 * gpm.real * re_block + 2.0 * gpm.imag * im_block

    condensate_coupled = gp0 != 0.0 or gm0 != 0.0
    return value, grad, hess, condensate_coupled


def _observable_terms(matrix3, u, n_atoms):
    """Oracle: (constant, linear coefficients, quadratic form) of one generator;
    condensate-coupled generators keep only their linear term."""
    value, grad, hess, coupled = _symbol_pieces(matrix3, u, n_atoms)
    if coupled:
        return value, grad / np.sqrt(2.0), np.zeros((4, 4))
    f = hess / 2.0
    return value - np.trace(f) / 4.0, grad / np.sqrt(2.0), f


def _looped_generator_moments(solution):
    """Oracle: generator means and covariances, one pair of generators at a time."""
    u = np.sqrt(solution.N) * np.array([
        solution.beta_p.real, solution.beta_p.imag,
        solution.beta_m.real, solution.beta_m.imag,
    ])
    sigma = solution.covariance
    terms = [_observable_terms(generator_matrix(lbl), u, solution.N) for lbl in GENERATOR_LABELS]
    means = np.array([c + 0.5 * np.trace(f @ sigma) for c, _, f in terms])
    cov = np.empty((8, 8))
    for i in range(8):
        _, ai, fi = terms[i]
        for j in range(i, 8):
            _, aj, fj = terms[j]
            val = float(ai @ sigma @ aj)
            val += 0.5 * np.trace(fi @ sigma @ fj @ sigma)
            val += 0.125 * np.trace(fi @ OMEGA @ fj @ OMEGA)
            cov[i, j] = cov[j, i] = val
    return means, cov


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = 0.3 * rng.standard_normal(4)
        g = classical_gradient(v, COEFFS, 100)
        h = 1e-6
        for i in range(4):
            dv = np.zeros(4)
            dv[i] = h
            fd = (classical_energy(v + dv, COEFFS, 100)
                  - classical_energy(v - dv, COEFFS, 100)) / (2 * h)
            assert abs(g[i] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(12)
    v = 0.25 * rng.standard_normal(4)
    hess = classical_hessian(v, COEFFS, 100)
    h = 1e-5
    for i in range(4):
        dv = np.zeros(4)
        dv[i] = h
        fd = (classical_gradient(v + dv, COEFFS, 100)
              - classical_gradient(v - dv, COEFFS, 100)) / (2 * h)
        assert np.max(np.abs(hess[:, i] - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))


def test_symbol_derivatives_match_finite_differences_for_every_generator():
    # all eight generators, including the complex Jy, Qxy and Qyz, out to
    # |u|^2 = 0.9999 N where the Hessian of s grows like 1/s^3
    mats = generator_stack()
    rng = np.random.default_rng(41)
    for n in (1.0, 50.0):
        for frac in (0.05, 0.5, 0.9, 0.999, 0.9999):
            u = rng.standard_normal(4)
            u *= np.sqrt(frac * n) / np.linalg.norm(u)
            h = 1e-4 * (n - u @ u) / np.sqrt(n)  # shrinks with s^2 near the rim
            _, grad, hess = _symbol(mats, u, n)
            fd_grad, fd_hess = np.empty_like(grad), np.empty_like(hess)
            for i in range(4):
                du = np.zeros(4)
                du[i] = h
                v_p, g_p, _ = _symbol(mats, u + du, n)
                v_m, g_m, _ = _symbol(mats, u - du, n)
                fd_grad[:, i] = (v_p - v_m) / (2 * h)
                fd_hess[:, :, i] = (g_p - g_m) / (2 * h)
            # per generator, relative to its largest derivative entry
            err_g = np.max(np.abs(grad - fd_grad), axis=1) / np.max(np.abs(grad), axis=1)
            err_h = np.max(np.abs(hess - fd_hess), axis=(1, 2)) / np.max(np.abs(hess), axis=(1, 2))
            assert np.all(err_g <= 1e-6) and np.all(err_h <= 1e-6), (n, frac)


def test_mean_field_is_stationary_and_stable():
    mf = hp_mean_field(COEFFS, 100)
    assert mf.grad_norm <= 1e-10
    v = mf.as_vector()
    assert np.linalg.norm(classical_gradient(v, COEFFS, 100)) <= 1e-10
    assert np.linalg.eigvalsh(classical_hessian(v, COEFFS, 100))[0] >= -1e-9


def test_mean_field_vacuum_when_undriven():
    coeffs = effective_coefficients(ModelParams(omega_R=0.0, delta=0.0, epsilon=6.0, N=100))
    mf = hp_mean_field(coeffs, 100)
    assert abs(mf.beta_p) <= 1e-9
    assert abs(mf.beta_m) <= 1e-9
    # classical energy of the empty side modes: -2 hY / sqrt(3)
    assert abs(mf.energy_per_atom + 2.0 * coeffs.hY / np.sqrt(3.0)) <= 1e-12


def test_quadratic_requires_stationary_point():
    with pytest.raises(ConfigError):
        hp_quadratic(COEFFS, 100, np.array([0.3, 0.0, -0.2, 0.1]))


def test_vacuum_covariance_is_identity_over_two():
    coeffs = effective_coefficients(ModelParams(omega_R=0.0, delta=0.0, epsilon=6.0, N=100))
    sol = hp_quadratic(coeffs, 100, np.zeros(4))
    assert np.max(np.abs(sol.covariance - 0.5 * np.eye(4))) <= 1e-12
    # both normal modes sit at the bare side-mode gap 2 sqrt(3) hY / 2
    assert np.allclose(sol.frequencies, np.sqrt(3.0) * coeffs.hY, atol=1e-9)


def test_covariance_is_pure_gaussian_state():
    sol = solve_gaussian(COEFFS, 100)
    sigma = sol.covariance
    assert np.max(np.abs(sigma - sigma.T)) <= 1e-12
    # symplectic eigenvalues of a pure Gaussian state are exactly 1/2
    ev = np.linalg.eigvals(1j * OMEGA @ sigma)
    nu = np.sort(np.abs(ev))
    assert np.max(np.abs(nu - 0.5)) <= 1e-10
    # Heisenberg pairs: Var(x) Var(p) >= 1/4 per mode
    assert sigma[0, 0] * sigma[1, 1] >= 0.25 - 1e-12
    assert sigma[2, 2] * sigma[3, 3] >= 0.25 - 1e-12


def test_unstable_expansion_raises_with_frequency():
    # inverted quadrupole field makes the empty condensate a local maximum
    coeffs = EffectiveCoefficients(q=0.0, hx=0.0, hz=0.0, hY=-2.0)
    with pytest.raises(UnstableExpansionError) as err:
        hp_quadratic(coeffs, 100, np.zeros(4))
    assert err.value.frequency is not None


def test_vacuum_moments_reproduce_fock_limits():
    coeffs = effective_coefficients(ModelParams(omega_R=0.0, delta=0.0, epsilon=6.0, N=150))
    sol = hp_quadratic(coeffs, 150, np.zeros(4))
    m = gaussian_moment_set(sol)
    assert abs(m.cov("Jx", "Jx") - 150.0) <= 1e-9
    assert abs(m.cov("Jy", "Jy") - 150.0) <= 1e-9
    assert abs(m.mean("Y") + 2.0 * 150.0 / np.sqrt(3.0)) <= 1e-9
    assert abs(m.mean("Jz")) <= 1e-12
    assert abs(m.cov("Jz", "Jz")) <= 1e-9
    assert abs(m.cov("Y", "Y")) <= 1e-9
    rm, r0, rp = populations(m)
    assert abs(r0 - 1.0) <= 1e-12 and abs(rm) <= 1e-12 and abs(rp) <= 1e-12


def test_driven_moments_match_ed_at_large_n():
    params = ModelParams(omega_R=2.0, delta=0.0, epsilon=6.0, N=200)
    coeffs = effective_coefficients(params)
    ed = ed_moment_set(ed_ground_state(coeffs, 200))
    hp = gaussian_moment_set(solve_gaussian(coeffs, 200))
    assert abs(xi_x(hp) - xi_x(ed)) / xi_x(ed) <= 0.05
    for lbl in ("Jz", "Y"):
        assert abs(hp.mean(lbl) - ed.mean(lbl)) <= 0.05 * max(1.0, abs(ed.mean(lbl)))


def test_moment_set_psd_and_variances():
    sol = solve_gaussian(COEFFS, 100)
    m = gaussian_moment_set(sol).validate()
    for lbl in ("Jx", "Jy", "Jz", "Y"):
        assert m.cov(lbl, lbl) >= 0.0


def test_no_convergence_error_carries_context():
    from socsqueeze.errors import ConvergenceError

    # a linear trap in an unbounded direction has no stationary point
    coeffs = EffectiveCoefficients(q=0.0, hx=0.0, hz=5.0, hY=0.0)
    with pytest.raises((ConvergenceError, UnstableExpansionError)):
        mf = hp_mean_field(coeffs, 100)
        hp_quadratic(coeffs, 100, mf)


def _bfgs_mean_field(coeffs, n_atoms):
    """Oracle: 25 BFGS starts from the per-mode seeds {0, +-0.05, +-0.05i},
    each polished by a root solve, with the same acceptance as the package."""
    seeds = (0.0, 0.05, -0.05, 0.05j, -0.05j)
    args = (coeffs, n_atoms)
    accepted = []
    for sp in seeds:
        for sm in seeds:
            v0 = np.array([sp.real, sp.imag, sm.real, sm.imag])
            res = scipy.optimize.minimize(
                classical_energy, v0, args=args, jac=classical_gradient,
                method="BFGS", options={"gtol": 1e-11, "maxiter": 500},
            )
            sol = scipy.optimize.root(classical_gradient, res.x, args=args,
                                      jac=classical_hessian, method="hybr", tol=1e-13)
            v = sol.x if sol.success else res.x
            if np.linalg.norm(classical_gradient(v, *args)) > GRAD_TOL_ACCEPT or v @ v >= 1.0:
                continue
            if np.linalg.eigvalsh(classical_hessian(v, *args))[0] < -1e-9 * max(1.0, abs(coeffs.hY)):
                continue
            accepted.append((float(classical_energy(v, *args)), v))
    accepted.sort(key=lambda t: t[0])
    return accepted[0]


def _perfbench_gaussian_cells():
    """The 24 cells of the three Gaussian benchmark sweeps."""
    cells = [(om, 0.0, 6.0, 200) for om in np.linspace(0.5, 4.0, 8)]
    cells += [(2.0, 0.0, ep, 200) for ep in np.linspace(5.0, 7.0, 8)]
    cells += [(2.0, de, 6.0, 100000) for de in np.linspace(-1.75, 1.75, 8)]
    return cells


def test_moment_set_matches_looped_oracle():
    # the 24 benchmark cells and the vacuum; entries that vanish exactly come
    # out as roundoff of the largest one, hence the 1e-14 floor
    vacuum = effective_coefficients(ModelParams(omega_R=0.0, delta=0.0, epsilon=6.0, N=150))
    solutions = [hp_quadratic(vacuum, 150, np.zeros(4))]
    for omega_r, delta, eps, n in _perfbench_gaussian_cells():
        coeffs = effective_coefficients(ModelParams(omega_R=omega_r, delta=delta, epsilon=eps, N=n))
        solutions.append(solve_gaussian(coeffs, n))
    for sol in solutions:
        got = gaussian_moment_set(sol)
        ref = MomentSet(sol.N, *spec_moments(*_looped_generator_moments(sol), GENERATOR_SPECS))
        for a, b in ((got.means, ref.means), (got.covariances, ref.covariances)):
            assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b) + 1e-14 * np.max(np.abs(b)))


def test_phase_closed_form_never_raises_the_energy():
    rng = np.random.default_rng(21)
    negative_drive = EffectiveCoefficients(q=0.08, hx=-1.3, hz=0.4, hY=3.0)
    for coeffs in (COEFFS, negative_drive):
        sign = np.sign(coeffs.hx)
        for _ in range(100):
            v = rng.standard_normal(4)
            v *= rng.uniform(0.0, 0.999) / np.linalg.norm(v)
            reduced = np.array([-sign * np.hypot(v[0], v[1]), 0.0,
                                -sign * np.hypot(v[2], v[3]), 0.0])
            assert classical_energy(v, coeffs, 100) >= classical_energy(reduced, coeffs, 100) - 1e-12


def test_mean_field_matches_multistart_bfgs_oracle():
    rng = np.random.default_rng(31)
    cells = _perfbench_gaussian_cells()
    cells += [(rng.uniform(0.0, 5.0), rng.uniform(-2.0, 2.0), rng.uniform(6.0, 10.0), 200)
              for _ in range(12)]
    for omega_r, delta, eps, n in cells:
        coeffs = effective_coefficients(ModelParams(omega_R=omega_r, delta=delta, epsilon=eps, N=n))
        mf = hp_mean_field(coeffs, n)
        e_ref, v_ref = _bfgs_mean_field(coeffs, n)
        assert abs(mf.energy_per_atom - e_ref) <= 1e-12 * abs(e_ref)
        assert np.max(np.abs(mf.as_vector() - v_ref)) <= 1e-8
        assert not mf.degenerate


def test_mirror_symmetry_swaps_side_modes():
    for omega_r, delta, eps in ((2.0, 0.5, 6.0), (3.0, -1.5, 7.0), (1.0, 2.0, 8.0)):
        c = effective_coefficients(ModelParams(omega_R=omega_r, delta=delta, epsilon=eps, N=100))
        mf = hp_mean_field(c, 100)
        mirror = hp_mean_field(EffectiveCoefficients(c.q, c.hx, -c.hz, c.hY), 100)
        assert abs(mf.beta_p) > 1e-3 and abs(mf.beta_p - mf.beta_m) > 1e-3
        assert abs(mirror.beta_p - mf.beta_m) <= 1e-12
        assert abs(mirror.beta_m - mf.beta_p) <= 1e-12
        assert abs(mirror.energy_per_atom - mf.energy_per_atom) <= 1e-12 * abs(mf.energy_per_atom)


def test_symmetry_broken_mirror_pair_is_degenerate():
    # at hz = 0 a strong drive splits the side modes; both orderings are minima
    coeffs = EffectiveCoefficients(q=0.0225, hx=4.0 / np.sqrt(2.0), hz=0.0, hY=1.25 / np.sqrt(3.0))
    mf = hp_mean_field(coeffs, 100)
    assert mf.degenerate
    assert abs(abs(mf.beta_p) - abs(mf.beta_m)) > 0.1
    mirror = np.array([mf.beta_m.real, mf.beta_m.imag, mf.beta_p.real, mf.beta_p.imag])
    assert abs(classical_energy(mirror, coeffs, 100) - mf.energy_per_atom) <= 1e-12
    assert np.linalg.norm(classical_gradient(mirror, coeffs, 100)) <= GRAD_TOL_ACCEPT


def test_free_phase_without_drive_is_degenerate():
    # omega = 0 with an attractive -q Fz^2: |beta+|^2 = 1/4 at any phase
    coeffs = EffectiveCoefficients(q=-0.02, hx=0.0, hz=-2.0, hY=1.0 / np.sqrt(3.0))
    mf = hp_mean_field(coeffs, 100)
    assert mf.degenerate
    assert abs(abs(mf.beta_p) ** 2 - 0.25) <= 1e-12
    assert abs(mf.beta_m) <= 1e-12
    for phase in np.linspace(0.0, 2.0 * np.pi, 7):
        v = np.array([0.5 * np.cos(phase), 0.5 * np.sin(phase), 0.0, 0.0])
        assert abs(classical_energy(v, coeffs, 100) - mf.energy_per_atom) <= 1e-12


@pytest.mark.parametrize("omega_r, delta, eps", [
    (2.0, 0.0, 2.0), (4.0, 0.5, 2.0), (2.0, 0.5, 2.0), (2.0, 2.0, 2.0),
    (1.0, 2.0, 0.0), (2.0, 0.5, 0.0), (2.0, 2.0, 0.0), (4.0, 2.0, 0.0),
])
def test_depleted_condensate_raises_and_ed_confirms(omega_r, delta, eps):
    n = 100
    coeffs = effective_coefficients(ModelParams(omega_R=omega_r, delta=delta, epsilon=eps, N=n))
    with pytest.raises(DepletedCondensateError, match=r"rho_0 = .*beta\+\|\^2 = .*beta-\|\^2 = ") as err:
        solve_gaussian(coeffs, n)
    assert isinstance(err.value, ConvergenceError)
    assert err.value.context["rho_0"] < MIN_CENTRAL_OCCUPATION
    _, rho_0, _ = populations(ed_moment_set(ed_ground_state(coeffs, n)))
    assert rho_0 < 0.05

"""Mean field and Gaussian expansion: derivative oracles, vacuum limits,
symplectic purity, agreement with exact diagonalization, the mean-field
search against a multi-start BFGS oracle and against the earlier 2-D
grid-and-Newton search, and the generator moments against a hand-derived,
per-generator oracle."""

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
    MeanFieldResult,
    _energy_derivatives,
    _symbol,
    classical_energy,
    classical_gradient,
    classical_hessian,
    gaussian_moment_set,
    hp_mean_field,
    hp_quadratic,
    solve_gaussian,
)
from socsqueeze.metrics import MomentSet, populations, xi_x
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
        ref = MomentSet(sol.N, *_looped_generator_moments(sol))
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
    points = [(effective_coefficients(ModelParams(omega_R=om, delta=de, epsilon=ep, N=n)), n)
              for om, de, ep, n in cells]
    # q < 0 with a drive: there the 1-D search rests on the exact Lagrange dual
    rng = np.random.default_rng(32)
    points += [(EffectiveCoefficients(q=-rng.uniform(0.005, 0.03),
                                      hx=float(rng.choice([-1.0, 1.0])) * rng.uniform(0.3, 2.0),
                                      hz=rng.uniform(-1.5, 1.5), hY=rng.uniform(1.5, 4.0)), 100)
               for _ in range(8)]
    for coeffs, n in points:
        mf = hp_mean_field(coeffs, n)
        e_ref, v_ref = _bfgs_mean_field(coeffs, n)
        assert abs(mf.energy_per_atom - e_ref) <= 1e-12 * abs(e_ref)
        assert np.max(np.abs(mf.as_vector() - v_ref)) <= 1e-8
        assert not mf.degenerate


_ORACLE_GRID_POINTS = 41
_ORACLE_NEIGHBOURS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
_ORACLE_PLANE = slice(0, 4, 2)  # the (x+, x-) entries of v = (x+, y+, x-, y-)


def _oracle_energy_grid(coeffs, n_atoms):
    """Oracle grid: square in p, with x = p sin(pi |p| / 2) / |p| and so
    s = cos(pi |p| / 2), evenly spaced in angle on the hemisphere
    (s, x+, x-).  Returns the points, their energies (inf outside |p| <= 1)
    and the mask of the interior local minima."""
    p = np.linspace(-1.0, 1.0, _ORACLE_GRID_POINTS)
    pp, pm = np.meshgrid(p, p, indexing="ij")
    radius = np.hypot(pp, pm)
    scale = 0.5 * np.pi * np.sinc(0.5 * radius)  # sin(pi r / 2) / r
    xp, xm = scale * pp, scale * pm
    zero = np.zeros_like(xp)
    inside = radius <= 1.0
    energy = np.where(inside, classical_energy(np.array([xp, zero, xm, zero]),
                                               coeffs, n_atoms), np.inf)
    padded = np.pad(energy, 1, constant_values=np.inf)
    n = _ORACLE_GRID_POINTS
    neighbours = np.array([padded[1 + di:1 + di + n, 1 + dj:1 + dj + n]
                           for di, dj in _ORACLE_NEIGHBOURS])
    rim = np.any(np.isinf(neighbours), axis=0)
    minima = inside & ~rim & np.all(energy <= neighbours, axis=0)
    return xp, xm, energy, minima


def _oracle_polish(start, coeffs, n_atoms):
    """Oracle: 2x2 Newton on the real (x+, x-) plane along -|H|^-1 g, halving
    a step that leaves the disk or raises the energy beyond roundoff."""
    v = np.array([start[0], 0.0, start[1], 0.0])
    e = classical_energy(v, coeffs, n_atoms)
    for _ in range(50):
        g, h = _energy_derivatives(v, coeffs, n_atoms)
        w, u = np.linalg.eigh(h[_ORACLE_PLANE, _ORACLE_PLANE])
        step = -u @ ((u.T @ g[_ORACLE_PLANE]) / np.maximum(np.abs(w), 1e-12))
        slack = 1e-13 * max(1.0, abs(e))
        while True:
            trial = v.copy()
            trial[_ORACLE_PLANE] += step
            e_trial = classical_energy(trial, coeffs, n_atoms)
            if trial @ trial < 1.0 and e_trial <= e + slack:
                break
            step = 0.5 * step
            if np.max(np.abs(step)) < 1e-16:
                return v
        v, e = trial, e_trial
        if np.max(np.abs(step)) <= 1e-15:
            break
    return v


def _grid_newton_mean_field(coeffs, n_atoms):
    """Oracle: the earlier mean-field search.  The local minima of a 41x41
    hemisphere grid over the real (x+, x-) disk are polished by 2x2 Newton;
    accepted points are stationary, inside the disk and have a PSD Hessian.
    Depletion is raised when the winner has s^2 < MIN_CENTRAL_OCCUPATION, or
    when a grid point with s^2 < MIN_CENTRAL_OCCUPATION lies below every
    accepted point (is lowest on the grid, if none is accepted)."""
    args = (coeffs, n_atoms)
    xp, xm, energy, minima = _oracle_energy_grid(*args)
    accepted = []
    for start in zip(xp[minima], xm[minima]):
        v = _oracle_polish(start, *args)
        g, h = _energy_derivatives(v, *args)
        gn = float(np.linalg.norm(g))
        if gn > GRAD_TOL_ACCEPT or v @ v >= 1.0:
            continue
        if np.linalg.eigvalsh(h)[0] < -1e-9 * max(1.0, abs(coeffs.hY)):
            continue
        accepted.append((float(classical_energy(v, *args)), gn, v))
    accepted.sort(key=lambda t: t[0])
    depleted = np.where(1.0 - xp * xp - xm * xm < MIN_CENTRAL_OCCUPATION, energy, np.inf)
    if accepted:
        depleted_lowest = np.min(depleted) < accepted[0][0]
    else:
        depleted_lowest = np.min(depleted) == np.min(energy)
    if depleted_lowest:
        raise DepletedCondensateError("the grid is lowest in its depleted part")
    if not accepted:
        raise ConvergenceError("no mean-field start converged")
    e_best, gn_best, v_best = accepted[0]
    if 1.0 - v_best @ v_best < MIN_CENTRAL_OCCUPATION:
        raise DepletedCondensateError("the global minimum depletes the central mode")
    distinct = [v_best]
    for e, _, v in accepted[1:]:
        if e - e_best > 1e-10:
            break
        if all(np.max(np.abs(v - u)) > 1e-6 for u in distinct):
            distinct.append(v)
    return MeanFieldResult(complex(v_best[0], v_best[1]), complex(v_best[2], v_best[3]),
                           e_best, gn_best, len(distinct) > 1)


def test_mean_field_matches_grid_newton_oracle():
    # the 24 benchmark cells and 1 000 seeded points across the solved and
    # depleted regions, at three atom numbers
    rng = np.random.default_rng(33)
    cells = _perfbench_gaussian_cells()
    cells += [(rng.uniform(0.0, 8.0), rng.uniform(-5.0, 5.0), rng.uniform(-3.0, 12.0),
               int(rng.choice([20, 200, 100000]))) for _ in range(1000)]
    outcomes = {}
    for omega_r, delta, eps, n in cells:
        coeffs = effective_coefficients(ModelParams(omega_R=omega_r, delta=delta, epsilon=eps, N=n))
        got, ref = [], []
        for search, result in ((hp_mean_field, got), (_grid_newton_mean_field, ref)):
            try:
                result.append(search(coeffs, n))
            except ConvergenceError as exc:
                result.append(type(exc))
        got, ref = got[0], ref[0]
        if isinstance(ref, type):
            assert got is ref, (omega_r, delta, eps, n)
            outcomes[ref.__name__] = outcomes.get(ref.__name__, 0) + 1
            continue
        assert isinstance(got, MeanFieldResult), (omega_r, delta, eps, n, got)
        outcomes["solved"] = outcomes.get("solved", 0) + 1
        assert abs(got.energy_per_atom - ref.energy_per_atom) <= 1e-12 * abs(ref.energy_per_atom)
        assert np.max(np.abs(got.as_vector() - ref.as_vector())) <= 1e-8
        assert got.degenerate == ref.degenerate
    assert outcomes["solved"] >= 300 and outcomes["DepletedCondensateError"] >= 300, outcomes


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

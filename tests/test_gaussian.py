"""Mean field and Gaussian expansion: finite-difference checks of the
sphere gradient, the frame's quadratic form and every generator's frame
expansion, vacuum limits, symplectic purity, agreement with exact
diagonalization (also where the central mode is depleted, converging as
1/N, or nearly empty), the frequencies against the earlier chart
expansion's normal form, the mean-field search against a grid search
polished by Newton on the sphere of spinors, its crossings against the
earlier bisection, and the generator moments against a Wick's theorem
oracle on the side-mode operators."""

import math

import numpy as np
import pytest

from socsqueeze.errors import ConfigError, ConvergenceError, UnstableExpansionError
from socsqueeze.algebra import GENERATOR_LABELS, generator_matrix, generator_stack
from socsqueeze.fockspace import ed_ground_state, ed_moment_set
from socsqueeze.gaussian import (
    GRAD_TOL_ACCEPT,
    OMEGA,
    MeanFieldResult,
    _energy_scale,
    _frame_expansion,
    _self_consistent_matrix,
    classical_energy,
    gaussian_moment_set,
    hp_mean_field,
    hp_quadratic,
    solve_gaussian,
)
from socsqueeze.metrics import MomentSet, build_report, populations, xi_x
from socsqueeze.params import EffectiveCoefficients, ModelParams, effective_coefficients

COEFFS = effective_coefficients(ModelParams(omega_R=2.0, delta=0.5, epsilon=6.0, N=100))
CENTRAL = np.array([0.0, 1.0, 0.0])  # every atom in the m = 0 mode


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
    return value, grad, hess


def _oracle_hessian(v, coeffs, n_atoms):
    """Oracle: the chart Hessian of the per-atom energy in v = (x+, y+, x-, y-),
    by the chain rule on the hand-derived symbol pieces of Jz, Jx and Y at
    N = 1: E = -qN jz^2 + hz jz + hx jx + hY y."""
    v = np.asarray(v, dtype=float)
    (jz, g_jz, h_jz), (_, _, h_jx), (_, _, h_y) = (
        _symbol_pieces(generator_matrix(lbl), v, 1.0) for lbl in ("Jz", "Jx", "Y"))
    return (-2.0 * coeffs.q * n_atoms * (np.outer(g_jz, g_jz) + jz * h_jz)
            + coeffs.hz * h_jz + coeffs.hx * h_jx + coeffs.hY * h_y)


def _normal_form(m):
    """Oracle: the normal-mode frequencies (descending) and the ground-state
    covariance of H = R^T m R / 2 for quadratures R = (x1, p1, x2, p2), by the
    symplectic normal form the Gaussian expansion once solved in its chart:
    with T = m^1/2 W m^1/2 and |T| = (T T^T)^1/2,
    sigma = m^-1/2 |T| m^-1/2 / 2."""
    w_m, u_m = np.linalg.eigh(m)
    assert w_m[0] > 0.0
    w_sqrt = u_m @ np.diag(np.sqrt(w_m)) @ u_m.T
    w_inv = u_m @ np.diag(1.0 / np.sqrt(w_m)) @ u_m.T
    t = w_sqrt @ OMEGA @ w_sqrt
    w_tt, u_tt = np.linalg.eigh(t @ t.T)
    freqs = np.sqrt(np.maximum(w_tt, 0.0))  # ascending, each frequency twice
    sigma = 0.5 * w_inv @ u_tt @ np.diag(freqs) @ u_tt.T @ w_inv
    return freqs[[3, 1]], 0.5 * (sigma + sigma.T)


def _chart_spinor(v):
    """The unit spinor (x+ + i y+, s, x- + i y-) with s = sqrt(1 - |v|^2) of
    the earlier chart's coordinates v = (x+, y+, x-, y-), |v| < 1."""
    return np.array([v[0] + 1j * v[1], math.sqrt(1.0 - v @ v), v[2] + 1j * v[3]])


def _displaced(frame, r, n_atoms):
    """The unit spinor sqrt(1 - |beta|^2) z + beta_1 e_1 + beta_2 e_2 of the
    frame (z, e_1, e_2), with beta = (X + i P) / sqrt(2N) from the frame
    quadratures r = (X1, P1, X2, P2)."""
    beta = (r[0::2] + 1j * r[1::2]) / np.sqrt(2.0 * n_atoms)
    return np.sqrt(1.0 - (beta.conj() @ beta).real) * frame[:, 0] + frame[:, 1:] @ beta


def _central_differences(f, h, size=4):
    """Gradient and Hessian of f at the origin of R^size by central
    differences of step h."""
    eye = h * np.eye(size)
    grad = np.array([(f(e) - f(-e)) / (2.0 * h) for e in eye])
    hess = np.array([[(f(ei + ej) - f(ei - ej) - f(ej - ei) + f(-ei - ej)) / (4.0 * h * h)
                      for ej in eye] for ei in eye])
    return grad, hess


def _mode_moments(sigma):
    """Oracle: <b_a b_b> and <b_a^dag b_b> of the side modes from the
    symmetrized covariance sigma over (X1, P1, X2, P2), with
    b = (X + i P) / sqrt(2) and [X_a, P_b] = i delta_ab."""
    x, p = slice(0, 4, 2), slice(1, 4, 2)
    xx, pp, xp, px = sigma[x, x], sigma[p, p], sigma[x, p], sigma[p, x]
    return 0.5 * (xx - pp + 1j * (xp + px)), 0.5 * (xx + pp + 1j * (xp - px) - np.eye(2))


def _looped_generator_moments(solution):
    """Oracle: generator means and covariances in the solution's frame, one
    pair of generators at a time, by Wick's theorem on the side-mode
    operators.  With G' = U^T G U, each generator is, normal ordered,
    N G'00 + sqrt(N) sum_a (G'0a b_a + h.c.) + sum_ab F_ab b_a^dag b_b with
    F = G'_side - G'00 I."""
    n, frame = solution.N, solution.frame
    bb, bdb = _mode_moments(solution.covariance)

    def pair(dag1, a, dag2, b):
        """<o1 o2> for o = b_a, or b_a^dag where dag is set."""
        if dag1 and dag2:
            return np.conj(bb[b, a])
        if dag1:
            return bdb[a, b]
        if dag2:
            return bdb[b, a] + (a == b)
        return bb[a, b]

    terms = []
    for lbl in GENERATOR_LABELS:
        g = frame.T @ generator_matrix(lbl) @ frame
        g00 = g[0, 0].real
        terms.append((n * g00, math.sqrt(n) * g[0, 1:], g[1:, 1:] - g00 * np.eye(2)))
    modes = range(2)
    means = np.array([(c + sum(f[a, b] * bdb[a, b] for a in modes for b in modes)).real
                      for c, _, f in terms])
    cov = np.empty((8, 8))
    for i, (_, li, fi) in enumerate(terms):
        for j, (_, lj, fj) in enumerate(terms):
            val = 0.0
            for a in modes:
                for b in modes:
                    val += (li[a] * lj[b] * pair(False, a, False, b)
                            + li[a] * np.conj(lj[b]) * pair(False, a, True, b)
                            + np.conj(li[a]) * lj[b] * pair(True, a, False, b)
                            + np.conj(li[a] * lj[b]) * pair(True, a, True, b))
                    for c in modes:
                        for d in modes:
                            val += fi[a, b] * fj[c, d] * (
                                pair(True, a, True, c) * pair(False, b, False, d)
                                + pair(True, a, False, d) * pair(False, b, True, c))
            cov[i, j] = val.real
    return means, cov


def test_gradient_matches_finite_differences():
    # the package's sphere gradient against central differences of its
    # per-atom energy along the geodesics cos(t) z + sin(t) w, for an
    # orthonormal basis w of the tangent space at real and complex unit z:
    # each derivative is 2 Re(w^dag A z), and their norm the gradient norm
    rng = np.random.default_rng(11)
    h = 1e-5
    for i in range(6):
        z = rng.standard_normal(3) + 1j * (i % 2) * rng.standard_normal(3)
        z /= np.linalg.norm(z)
        a, gn = _self_consistent_matrix(COEFFS, 100, z)
        tangent = np.linalg.svd(np.concatenate([z.real, z.imag])[None])[2][1:]
        derivs = []
        for row in tangent:
            w = row[:3] + 1j * row[3:]
            fd = (classical_energy(np.cos(h) * z + np.sin(h) * w, COEFFS, 100)
                  - classical_energy(np.cos(h) * z - np.sin(h) * w, COEFFS, 100)) / (2 * h)
            assert abs(fd - 2.0 * (w.conj() @ a @ z).real) <= 1e-6 * max(1.0, abs(fd))
            derivs.append(fd)
        assert abs(np.linalg.norm(derivs) - gn) <= 1e-6 * max(1.0, gn)


def test_hessian_matches_finite_differences():
    # N times the per-atom energy about the mean field, along the frame's
    # displacements, against the package's expansion: its gradient vanishes,
    # and the normal form of its central-difference Hessian gives the
    # package's frequencies and covariance.  Inside the wedge, where the
    # central mode is depleted, under a strong drive and with q < 0
    points = [(COEFFS, 100)]
    points += [(effective_coefficients(ModelParams(*fields, N=n)), n)
               for fields, n in (((2.0, 4.0, 0.0), 50), ((0.5, -3.0, -6.0), 200),
                                 ((300.0, 0.0, 6.0), 40))]
    points.append((EffectiveCoefficients(q=-0.01, hx=1.2, hz=0.6, hY=2.5), 100))
    for coeffs, n in points:
        mf = hp_mean_field(coeffs, n)
        sol = hp_quadratic(coeffs, n, mf.z)
        frame = sol.frame
        assert np.max(np.abs(frame.T @ frame - np.eye(3))) <= 1e-14
        assert np.max(np.abs(abs(frame[:, 0] @ mf.z) - 1.0)) <= 1e-12

        def energy(r):
            return n * classical_energy(_displaced(frame, r, n), coeffs, n)

        hess = _central_differences(energy, 1e-2)[1]
        scale = np.max(np.abs(hess))
        assert np.max(np.abs(_central_differences(energy, 1e-4)[0])) <= 1e-6 * scale
        assert np.max(np.abs(hess[0::2, 1::2])) <= 1e-6 * scale  # no X-P coupling
        freqs, sigma = _normal_form(hess)
        assert np.allclose(sol.frequencies, freqs, rtol=1e-5, atol=0.0)
        assert np.max(np.abs(sol.covariance - sigma)) <= 1e-5 * np.max(np.abs(sigma))


def _random_frame(rng, central):
    """A random real orthonormal frame whose first column has central
    (m = 0) occupation ``central``."""
    side = rng.standard_normal(2)
    side *= math.sqrt(1.0 - central) / np.linalg.norm(side)
    z = np.array([side[0], math.sqrt(central), side[1]])
    q, _ = np.linalg.qr(np.column_stack([z, rng.standard_normal((3, 2))]))
    return q * np.sign(q[:, 0] @ z)


def test_symbol_derivatives_match_finite_differences_for_every_generator():
    # every generator's frame expansion value + a.R + R^T F R / 2 against
    # central differences of its classical symbol N z^dag G z at the
    # displaced spinor, for all eight generators (the complex Jy, Qxy and
    # Qyz included) in random frames, down to a central occupation of 1e-4,
    # where the earlier chart's Hessian grew like 1/s^3
    mats = generator_stack()
    rng = np.random.default_rng(41)
    for n in (1, 50):
        for central in (0.95, 0.5, 0.1, 1e-3, 1e-4):
            frame = _random_frame(rng, central)
            value, a, f = _frame_expansion(frame, n)

            def symbol(r):
                z = _displaced(frame, r, n)
                return n * np.einsum("i,kij,j->k", z.conj(), mats, z).real

            grad, hess = _central_differences(symbol, 1e-3)
            assert np.max(np.abs(value - symbol(np.zeros(4)))) <= 1e-13 * n
            # per generator, relative to its largest derivative entry
            err_g = np.max(np.abs(a - grad.T), axis=1) / np.max(np.abs(a), axis=1)
            err_h = (np.max(np.abs(f - hess.transpose(2, 0, 1)), axis=(1, 2))
                     / np.max(np.abs(f), axis=(1, 2)))
            assert np.all(err_g <= 1e-6) and np.all(err_h <= 1e-6), (n, central)


def test_mean_field_is_stationary_and_stable():
    # the sphere oracle's gradient and Hessian along the real tangent plane
    # and the relative phases
    mf = hp_mean_field(COEFFS, 100)
    assert mf.grad_norm <= 1e-10
    _, _, grad, hess = _oracle_tangent_terms(mf.z, COEFFS, 100)
    assert np.linalg.norm(grad) <= 1e-10
    assert np.linalg.eigvalsh(hess)[0] >= -1e-9


def test_mean_field_vacuum_when_undriven():
    coeffs = effective_coefficients(ModelParams(omega_R=0.0, delta=0.0, epsilon=6.0, N=100))
    mf = hp_mean_field(coeffs, 100)
    assert abs(mf.z[0]) <= 1e-9
    assert abs(mf.z[2]) <= 1e-9
    # classical energy of the empty side modes: -2 hY / sqrt(3)
    assert abs(mf.energy_per_atom + 2.0 * coeffs.hY / np.sqrt(3.0)) <= 1e-12


def test_quadratic_requires_stationary_point():
    z = np.array([0.3, 0.9, -0.2])
    with pytest.raises(ConfigError, match="requires a stationary point"):
        hp_quadratic(COEFFS, 100, z / np.linalg.norm(z))


def test_quadratic_rejects_a_malformed_mean_field_vector():
    # a NaN gradient norm is not above the tolerance, so a non-finite vector
    # is caught with the shape, before the expansion; so is a wrong shape (the
    # earlier chart's 4-vector among them), a norm off 1 by more than 1e-12,
    # which is no spinor, and a complex spinor
    nan, inf = float("nan"), float("inf")
    for z in ([0.0, 1.0], [0.0, 1.0, 0.0, 0.0], [[0.0, 1.0, 0.0]], [nan, 1.0, 0.0],
              [inf, 1.0, 0.0], [0.0, 1.0, -inf], [0.8, 0.0, -0.7], [0.0, 1.0 + 2e-12, 0.0],
              [0.0, 0.5, 0.0], [0.0, 1.0j, 0.0]):
        with pytest.raises(ConfigError, match="must be a finite real unit 3-vector"):
            hp_quadratic(COEFFS, 100, np.array(z))


def test_vacuum_covariance_is_identity_over_two():
    coeffs = effective_coefficients(ModelParams(omega_R=0.0, delta=0.0, epsilon=6.0, N=100))
    sol = hp_quadratic(coeffs, 100, CENTRAL)
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
        hp_quadratic(coeffs, 100, CENTRAL)
    assert err.value.frequency is not None
    # omega_R = 0 with an attractive -q Fz^2 frees the mean field's phase: a
    # zero mode, which the gaps and K must exceed by more than roundoff
    coeffs = EffectiveCoefficients(q=-0.02, hx=0.0, hz=-2.0, hY=1.0 / np.sqrt(3.0))
    with pytest.raises(UnstableExpansionError, match="not a stable minimum") as err:
        solve_gaussian(coeffs, 100)
    assert abs(err.value.frequency) <= 1e-12


def test_vacuum_moments_reproduce_fock_limits():
    coeffs = effective_coefficients(ModelParams(omega_R=0.0, delta=0.0, epsilon=6.0, N=150))
    sol = hp_quadratic(coeffs, 150, CENTRAL)
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
    # a field along Jz alone empties the central mode, which the expansion
    # about the central mode refused; in the condensate's own frame it is the
    # polarized state, with its two excitations at the Zeeman gaps 2 hz and hz
    coeffs = EffectiveCoefficients(q=0.0, hx=0.0, hz=5.0, hY=0.0)
    sol = solve_gaussian(coeffs, 100)
    assert np.allclose(sol.frequencies, [10.0, 5.0], rtol=1e-14, atol=0.0)
    m = gaussian_moment_set(sol)
    assert abs(m.mean("Jz") + 100.0) <= 1e-12 and abs(m.cov("Jz", "Jz")) <= 1e-12
    # a mean-field matrix past float64 fails with the coefficients and N
    coeffs = effective_coefficients(ModelParams(2.0, 1.7e308, -1.7e308, N=100))
    with pytest.raises(ConvergenceError, match="the mean-field matrix overflows") as err:
        hp_mean_field(coeffs, 100)
    assert err.value.context == {"coeffs": coeffs, "N": 100}


def test_mean_field_off_its_crossing_is_not_a_minimum(monkeypatch):
    # a crossing moved by 1e-8 leaves the returned amplitudes off stationarity,
    # which the final check must catch rather than return
    from socsqueeze import gaussian

    coeffs = effective_coefficients(ModelParams(omega_R=2.0, delta=0.0, epsilon=6.0, N=200))
    assert hp_mean_field(coeffs, 200).grad_norm <= 1e-3 * GRAD_TOL_ACCEPT
    crossings = gaussian._crossings
    monkeypatch.setattr(gaussian, "_crossings", lambda base, slope: crossings(base, slope) + 1e-8)
    with pytest.raises(ConvergenceError, match="is not a minimum: gradient norm") as err:
        hp_mean_field(coeffs, 200)
    assert err.value.context == {"coeffs": coeffs, "N": 200}


def test_stationarity_tolerances_follow_the_energy_scale():
    # the gradient norm of the mean field rounds at about eps times the energy
    # scale, here |hx|: 1.5e-10 at omega_R = 1e5 and 3.3e-4 at 1e12, which
    # absolute tolerances rejected from 1e5 up.  A strong drive tends to the
    # lowest Jx eigenstate, beta+ = beta- = -1/2, whose two excitations cost
    # |hx| and 2 |hx|
    for omega_r in np.logspace(3, 12, 10):
        coeffs = effective_coefficients(ModelParams(omega_R=omega_r, delta=0.0, epsilon=6.0, N=40))
        assert _energy_scale(coeffs, 40) == abs(coeffs.hx)
        mf = hp_mean_field(coeffs, 40)
        assert mf.grad_norm <= 1e-3 * GRAD_TOL_ACCEPT * abs(coeffs.hx)
        assert abs(mf.z[0] + 0.5) <= 2.0 / omega_r and abs(mf.z[2] + 0.5) <= 2.0 / omega_r
        sol = hp_quadratic(coeffs, 40, mf.z)
        assert np.allclose(sol.frequencies / abs(coeffs.hx), [2.0, 1.0], rtol=0.0,
                           atol=10.0 / omega_r)


def test_float64_overflow_is_named_without_a_warning():
    # a strong drive overflows the mean-field gradient norm, a large quadratic
    # shift the squared mode frequencies of the expansion, and fields at the
    # float64 maximum the mean-field matrix itself (LAPACK returns NaN
    # eigenvalues from about 1e308); each is a named ConvergenceError, and no
    # RuntimeWarning is raised on the way
    cases = [((1e200, 0.0, 6.0), "the mean-field gradient norm overflows float64"),
             ((1e300, 0.0, 6.0), "the mean-field gradient norm overflows float64"),
             ((2.0, 0.0, 1e200), "the squared mode frequencies overflow float64"),
             ((0.0, 0.0, 1e300), "the squared mode frequencies overflow float64"),
             ((2.0, 0.0, 1.7e308), "the squared mode frequencies overflow float64"),
             ((2.0, 1.7e308, -1.7e308), "the mean-field matrix overflows float64")]
    for fields, message in cases:
        coeffs = effective_coefficients(ModelParams(*fields, N=40))
        with pytest.raises(ConvergenceError, match=message) as err:
            solve_gaussian(coeffs, 40)
        assert err.value.context == {"coeffs": coeffs, "N": 40}


def test_oracle_energy_and_gradient_match_the_package():
    # the sphere oracle's hand-written energy against the package's at random
    # complex unit spinors and at their real parts' spinors, its gradient
    # against central differences of the package's energy and its Hessian
    # against central differences of its gradient, in the six real
    # coordinates (Re z, Im z); and the chart Hessian oracle (the chain rule on
    # the hand-derived symbol pieces) against central differences of the
    # package's energy at z(v), at random points v inside the disk, q of
    # either sign.  The chart's derivatives grow like powers of 1/s towards
    # the rim, so its steps shrink like s^2
    rng = np.random.default_rng(33)
    h = 1e-6
    steps = h * np.concatenate([np.eye(3), 1j * np.eye(3)])
    for i in range(200):
        n = int(rng.choice([10, 200, 100000]))
        coeffs = EffectiveCoefficients(q=(-1.0) ** i * rng.uniform(0.5, 10.0) / n,
                                       hx=rng.uniform(-3.0, 3.0), hz=rng.uniform(-2.0, 2.0),
                                       hY=rng.uniform(-1.0, 6.0))
        v = rng.normal(size=4)
        v *= rng.uniform(0.0, 0.999) / np.linalg.norm(v)
        for z in (_chart_spinor(v), _chart_spinor(v * [1.0, 0.0, 1.0, 0.0])):
            e, g, hess = _oracle_sphere_terms(z, coeffs, n)
            e_ref = classical_energy(z, coeffs, n)
            assert abs(e - e_ref) <= 1e-13 * max(1.0, abs(e_ref))
            g_ref = (classical_energy(z[:, None] + steps.T, coeffs, n)
                     - classical_energy(z[:, None] - steps.T, coeffs, n)) / (2 * h)
            assert np.max(np.abs(g - g_ref)) <= 1e-6 * max(1.0, np.max(np.abs(g)))
            h_ref = np.array([_oracle_sphere_terms(z + dz, coeffs, n)[1]
                              - _oracle_sphere_terms(z - dz, coeffs, n)[1] for dz in steps]) / (2 * h)
            assert np.max(np.abs(hess - h_ref)) <= 1e-5 * max(1.0, np.max(np.abs(hess)))
        h_ref = _central_differences(lambda dv: classical_energy(_chart_spinor(v + dv), coeffs, n),
                                     2e-4 * (1.0 - v @ v))[1]
        hess = _oracle_hessian(v, coeffs, n)
        assert np.max(np.abs(hess - h_ref)) <= 1e-5 * max(1.0, np.max(np.abs(hess)))


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
    solutions = [hp_quadratic(vacuum, 150, CENTRAL)]
    for omega_r, delta, eps, n in _perfbench_gaussian_cells():
        coeffs = effective_coefficients(ModelParams(omega_R=omega_r, delta=delta, epsilon=eps, N=n))
        solutions.append(solve_gaussian(coeffs, n))
    for sol in solutions:
        got = gaussian_moment_set(sol)
        ref = MomentSet(sol.N, *_looped_generator_moments(sol))
        for a, b in ((got.means, ref.means), (got.covariances, ref.covariances)):
            assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b) + 1e-14 * np.max(np.abs(b)))


def test_phase_closed_form_never_raises_the_energy():
    # a complex unit spinor against the real one of the same moduli with the
    # side amplitudes of the sign of -hx
    rng = np.random.default_rng(21)
    negative_drive = EffectiveCoefficients(q=0.08, hx=-1.3, hz=0.4, hY=3.0)
    for coeffs in (COEFFS, negative_drive):
        sign = np.sign(coeffs.hx)
        for _ in range(100):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            z /= np.linalg.norm(z)
            reduced = np.array([-sign * abs(z[0]), abs(z[1]), -sign * abs(z[2])])
            assert classical_energy(z, coeffs, 100) >= classical_energy(reduced, coeffs, 100) - 1e-12


_ORACLE_GRID_POINTS = 41
_ORACLE_NEIGHBOURS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
# the matrices of E(z) = -qN (z^dag Jz z)^2 + z^dag (hz Jz + hx Jx + hY Y) z,
# written out by hand
_ORACLE_JZ = np.diag([1.0, 0.0, -1.0])
_ORACLE_JX = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / math.sqrt(2.0)
_ORACLE_Y = np.diag([1.0, -2.0, 1.0]) / math.sqrt(3.0)


def _oracle_zeeman(coeffs):
    """Oracle: L = hz Jz + hx Jx + hY Y from the hand-written matrices."""
    return coeffs.hz * _ORACLE_JZ + coeffs.hx * _ORACLE_JX + coeffs.hY * _ORACLE_Y


def _oracle_energy(z, coeffs, n_atoms):
    """Oracle: E(z) of spinors z of shape (3, ...), real or complex."""
    j = np.einsum("i...,ij,j...->...", z.conj(), _ORACLE_JZ, z).real
    return (np.einsum("i...,ij,j...->...", z.conj(), _oracle_zeeman(coeffs), z).real
            - coeffs.q * n_atoms * j * j)


def _oracle_energy_grid(coeffs, n_atoms):
    """Oracle grid: square in p, with (x+, x-) = p sin(pi |p| / 2) / |p| and
    s = cos(pi |p| / 2), evenly spaced in angle on the hemisphere of real
    spinors z = (x+, s, x-).  Returns z (3, n, n) and the mask of the grid's
    local minima (over the neighbours inside |p| <= 1, so next to the rim
    too)."""
    p = np.linspace(-1.0, 1.0, _ORACLE_GRID_POINTS)
    pp, pm = np.meshgrid(p, p, indexing="ij")
    radius = np.hypot(pp, pm)
    scale = 0.5 * np.pi * np.sinc(0.5 * radius)  # sin(pi r / 2) / r
    z = np.array([scale * pp, np.cos(0.5 * np.pi * radius), scale * pm])
    inside = radius <= 1.0
    energy = np.where(inside, _oracle_energy(z, coeffs, n_atoms), np.inf)
    padded = np.pad(energy, 1, constant_values=np.inf)
    n = _ORACLE_GRID_POINTS
    neighbours = np.array([padded[1 + di:1 + di + n, 1 + dj:1 + dj + n]
                           for di, dj in _ORACLE_NEIGHBOURS])
    return z, inside & np.all(energy <= neighbours, axis=0)


def _oracle_sphere_terms(z, coeffs, n_atoms):
    """Oracle: E(z) of a spinor z, real or complex, with its gradient and
    Hessian in the six real coordinates x = (Re z, Im z), where L and Jz act
    on each half: with j = x^T Jz x, grad = 2 L x - 4qN j Jz x and
    hess = 2 L - 8qN (Jz x)(Jz x)^T - 4qN j Jz."""
    lmat = _oracle_zeeman(coeffs)
    qn = coeffs.q * n_atoms
    jz_z, l_z = _ORACLE_JZ @ z, lmat @ z
    j = float((z.conj() @ jz_z).real)
    grad = 2.0 * l_z - 4.0 * qn * j * jz_z
    w = np.concatenate([jz_z.real, jz_z.imag])
    hess = -8.0 * qn * np.outer(w, w)
    for half in (slice(0, 3), slice(3, 6)):
        hess[half, half] += 2.0 * lmat - 4.0 * qn * j * _ORACLE_JZ
    return (float((z.conj() @ l_z).real) - qn * j * j, np.concatenate([grad.real, grad.imag]),
            hess)


def _oracle_tangent_terms(z, coeffs, n_atoms):
    """Oracle: at a real unit spinor z, an orthonormal basis T (3, 2) of its
    real tangent plane, the energy, and the gradient and Hessian along the
    sphere of spinors over the tangent directions T and iT (the relative
    phases): B^T grad and B^T (hess - x.grad I) B, with B the columns (T, 0)
    and (0, T) in (Re z, Im z)."""
    e, g, h = _oracle_sphere_terms(z, coeffs, n_atoms)
    tangent = np.linalg.svd(z[None])[2][1:].T
    basis = np.zeros((6, 4))
    basis[:3, :2] = basis[3:, 2:] = tangent
    return tangent, e, basis.T @ g, basis.T @ (h - (z @ g[:3]) * np.eye(6)) @ basis


def _oracle_polish(z, coeffs, n_atoms):
    """Oracle: Riemannian Newton on the unit sphere of real spinors, from the
    grid spinor z.  Each step goes along -|H|^-1 g in the real tangent plane,
    back onto the sphere by normalizing, and is halved while it raises the
    energy beyond roundoff.  Returns z with s >= 0, its energy, tangent
    gradient norm and least tangent Hessian eigenvalue, the relative phases
    included."""
    tangent, e, g, h = _oracle_tangent_terms(z, coeffs, n_atoms)
    for _ in range(60):
        w, u = np.linalg.eigh(h[:2, :2])
        step = -u @ ((u.T @ g[:2]) / np.maximum(np.abs(w), 1e-12))
        slack = 1e-13 * max(1.0, abs(e))
        while np.max(np.abs(step)) >= 1e-16:
            trial = z + tangent @ step
            trial /= np.linalg.norm(trial)
            terms = _oracle_tangent_terms(trial, coeffs, n_atoms)
            if terms[1] <= e + slack:
                break
            step = 0.5 * step
        else:
            break
        z, (tangent, e, g, h) = trial, terms
        if np.max(np.abs(step)) <= 1e-15:
            break
    return z if z[1] >= 0.0 else -z, e, float(np.linalg.norm(g)), float(np.linalg.eigvalsh(h)[0])


def _grid_newton_mean_field(coeffs, n_atoms):
    """Oracle: the earlier mean-field search, polished on the sphere.  The
    local minima of a 41x41 grid over the hemisphere of real spinors are
    polished by Newton on the unit sphere, where a spinor with s = 0 is an
    ordinary point; accepted points are stationary and have a PSD tangent
    Hessian, and the lowest wins."""
    grid, minima = _oracle_energy_grid(coeffs, n_atoms)
    accepted = []
    for start in grid[:, minima].T:
        z, e, gn, least = _oracle_polish(start, coeffs, n_atoms)
        if gn <= GRAD_TOL_ACCEPT and least >= -1e-9 * max(1.0, abs(coeffs.hY)):
            accepted.append((e, gn, z))
    if not accepted:
        raise ConvergenceError("no mean-field start converged")
    accepted.sort(key=lambda t: t[0])
    e_best, gn_best, z_best = accepted[0]
    distinct = [z_best]
    for e, _, z in accepted[1:]:
        if e - e_best > 1e-10:
            break
        if all(np.max(np.abs(z - u)) > 1e-6 for u in distinct):
            distinct.append(z)
    return MeanFieldResult(z_best, e_best, gn_best, len(distinct) > 1)


def test_mean_field_matches_grid_newton_oracle():
    # the 24 benchmark cells and 1 000 seeded points across the wedge and the
    # region where the central mode is depleted, at three atom numbers: all
    # solve and match, at least 300 of them with less than half of the atoms
    # in the central mode (which the expansion about that mode refused).
    # Then 12 seeded cells of the wedge and 8 seeded driven sets with q < 0,
    # where the 1-D search rests on the exact Lagrange dual, each with a
    # single minimum
    rng = np.random.default_rng(33)
    cells = _perfbench_gaussian_cells()
    cells += [(rng.uniform(0.0, 8.0), rng.uniform(-5.0, 5.0), rng.uniform(-3.0, 12.0),
               int(rng.choice([20, 200, 100000]))) for _ in range(1000)]
    points = [(effective_coefficients(ModelParams(omega_R=om, delta=de, epsilon=ep, N=n)), n)
              for om, de, ep, n in cells]
    rng = np.random.default_rng(31)
    single = [(effective_coefficients(ModelParams(omega_R=rng.uniform(0.0, 5.0),
                                                  delta=rng.uniform(-2.0, 2.0),
                                                  epsilon=rng.uniform(6.0, 10.0), N=200)), 200)
              for _ in range(12)]
    rng = np.random.default_rng(32)
    single += [(EffectiveCoefficients(q=-rng.uniform(0.005, 0.03),
                                      hx=float(rng.choice([-1.0, 1.0])) * rng.uniform(0.3, 2.0),
                                      hz=rng.uniform(-1.5, 1.5), hY=rng.uniform(1.5, 4.0)), 100)
               for _ in range(8)]
    depleted = 0
    for i, (coeffs, n) in enumerate(points + single):
        got, ref = hp_mean_field(coeffs, n), _grid_newton_mean_field(coeffs, n)
        assert abs(got.energy_per_atom - ref.energy_per_atom) <= 1e-12 * abs(ref.energy_per_atom)
        assert np.max(np.abs(got.z - ref.z)) <= 1e-8, (coeffs, n)
        assert got.degenerate == ref.degenerate
        assert i < len(points) or not got.degenerate, (coeffs, n)
        depleted += ref.z[1] ** 2 < 0.5
    assert depleted >= 300, depleted


_ORACLE_BISECTIONS = 52  # shrink a 0.01 scan bracket to about 2e-18


def _oracle_matrices(coeffs, n_atoms):
    """Oracle: A(mu) = L - 2qN mu Jz at every mu of an array, from the
    hand-written matrices, and its slope 2qN."""
    lmat = _oracle_zeeman(coeffs)
    slope = 2.0 * coeffs.q * n_atoms
    return (lambda mu: lmat - (slope * mu)[:, None, None] * _ORACLE_JZ), slope


def _bisected_crossings(matrices):
    """Oracle: the earlier crossing search.  The upward sign changes of
    h(mu) = mu - <Jz>_0(mu) on a 201-point scan of [-1, 1] (a point with
    h >= 0 after one with h < 0, or mu = -1 itself), each closed by 52
    bisections onto the point with h >= 0, so also onto a jump of h where
    lambda_0 is degenerate."""
    def h(mu):
        vecs = np.linalg.eigh(matrices(mu))[1]
        return mu - vecs[:, 0, 0] ** 2 + vecs[:, 2, 0] ** 2

    scan = np.linspace(-1.0, 1.0, 201)
    above = h(scan) >= 0.0
    up = np.flatnonzero(above & ~np.concatenate(([False], above[:-1])))
    lo, hi = scan[np.maximum(up - 1, 0)], scan[up]
    for _ in range(_ORACLE_BISECTIONS):
        mid = 0.5 * (lo + hi)
        mid_above = h(mid) >= 0.0
        lo, hi = np.where(mid_above, lo, mid), np.where(mid_above, mid, hi)
    return hi


def _mean_field_sets(seed, m=420):
    """The 24 benchmark cells and m seeded coefficient sets: |q| N from 1e-2
    to 1e3 with q of either sign, |hx| from 1e-3 to 10 and exactly 0 at one
    set in seven (a degenerate lambda_0 makes h jump), hz in (-3, 3), hY in
    (-3, 5) and N in {20, 200, 1e5}."""
    sets = [(effective_coefficients(ModelParams(omega_R=om, delta=de, epsilon=ep, N=n)), n)
            for om, de, ep, n in _perfbench_gaussian_cells()]
    rng = np.random.default_rng(seed)
    for i in range(m):
        n = int(rng.choice([20, 200, 100000]))
        qn = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 3.0)
        hx = 0.0 if i % 7 == 0 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 1.0)
        sets.append((EffectiveCoefficients(q=qn / n, hx=hx, hz=rng.uniform(-3.0, 3.0),
                                           hY=rng.uniform(-3.0, 5.0)), n))
    return sets


def test_crossings_match_the_bisection_oracle():
    # the bracketed Newton finds every crossing that 52 bisections of each
    # scan bracket find, to within its step tolerance, also at hx = 0, where
    # it must bisect onto the jump of h
    from socsqueeze import gaussian

    jumps = 0
    for coeffs, n in _mean_field_sets(41):
        matrices, slope = _oracle_matrices(coeffs, n)
        got, ref = gaussian._crossings(matrices, slope), _bisected_crossings(matrices)
        assert len(got) == len(ref) >= 1, (coeffs, n)
        assert np.max(np.abs(got - ref)) <= 1e-13, (coeffs, n)
        jumps += coeffs.hx == 0.0
    assert jumps >= 60


def test_mean_field_takes_few_eigh_calls(monkeypatch):
    # one eigh for the scan, one per refiner step and one for the amplitudes.
    # Bisecting a scan bracket until a step is at most 1e-13 takes 37 halvings
    # (0.01 / 2^37 < 1e-13), 39 calls in all: only a jump of h (hx = 0) may
    # need that.  Measured maxima over this set and five more seeds: 6 on the
    # benchmark cells, 32 at hx != 0 (near-degenerate crossings bisect until
    # Newton takes over) and 42 at hx = 0; each bound leaves a small margin
    # for another LAPACK's roundoff, and the hx != 0 bound stays below 39.
    from socsqueeze import gaussian

    calls = []
    eigh = np.linalg.eigh

    def counting(a):
        calls[-1] += 1
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    jump = []
    for coeffs, n in _mean_field_sets(41):
        calls.append(0)
        gaussian._classical_minimum(coeffs, n)
        jump.append(coeffs.hx == 0.0)
    calls, jump = np.array(calls), np.array(jump)
    assert calls[:24].max() <= 8
    assert calls[~jump].max() <= 36
    assert calls[jump].max() <= 45


def test_mirror_symmetry_swaps_side_modes():
    for omega_r, delta, eps in ((2.0, 0.5, 6.0), (3.0, -1.5, 7.0), (1.0, 2.0, 8.0)):
        c = effective_coefficients(ModelParams(omega_R=omega_r, delta=delta, epsilon=eps, N=100))
        mf = hp_mean_field(c, 100)
        mirror = hp_mean_field(EffectiveCoefficients(c.q, c.hx, -c.hz, c.hY), 100)
        assert abs(mf.z[0]) > 1e-3 and abs(mf.z[0] - mf.z[2]) > 1e-3
        assert np.max(np.abs(mirror.z - mf.z[::-1])) <= 1e-12
        assert abs(mirror.energy_per_atom - mf.energy_per_atom) <= 1e-12 * abs(mf.energy_per_atom)


def test_symmetry_broken_mirror_pair_is_degenerate():
    # at hz = 0 a strong drive splits the side modes; both orderings are minima
    coeffs = EffectiveCoefficients(q=0.0225, hx=4.0 / np.sqrt(2.0), hz=0.0, hY=1.25 / np.sqrt(3.0))
    mf = hp_mean_field(coeffs, 100)
    assert mf.degenerate
    assert abs(abs(mf.z[0]) - abs(mf.z[2])) > 0.1
    mirror = mf.z[::-1]
    assert abs(classical_energy(mirror, coeffs, 100) - mf.energy_per_atom) <= 1e-12
    _, _, grad, hess = _oracle_tangent_terms(mirror, coeffs, 100)
    assert np.linalg.norm(grad) <= GRAD_TOL_ACCEPT
    assert np.linalg.eigvalsh(hess)[0] >= -1e-9


def test_free_phase_without_drive_is_degenerate():
    # omega = 0 with an attractive -q Fz^2: |beta+|^2 = 1/4 at any phase
    coeffs = EffectiveCoefficients(q=-0.02, hx=0.0, hz=-2.0, hY=1.0 / np.sqrt(3.0))
    mf = hp_mean_field(coeffs, 100)
    assert mf.degenerate
    assert abs(mf.z[0] ** 2 - 0.25) <= 1e-12
    assert abs(mf.z[2]) <= 1e-12
    for phase in np.linspace(0.0, 2.0 * np.pi, 7):
        z = np.array([0.5 * np.exp(1j * phase), math.sqrt(0.75), 0.0])
        assert abs(classical_energy(z, coeffs, 100) - mf.energy_per_atom) <= 1e-12


@pytest.mark.parametrize("qn", [-100.0, -1000.0])
def test_free_phase_off_the_scan_grid_is_found_at_strong_coupling(qn):
    # omega = 0 with A diagonal: the + and 0 levels cross at
    # mu* = (e0 - e+) / (-2qN), between scan points, and the minimum is their
    # mix with |beta+|^2 = mu*, of energy e0 - |q|N mu*^2.  A crossing left
    # even 1e-13 off mu* opens a gap of about 2|q|N 1e-13, which hides the
    # free phase once |q|N is large and returns the pure 0 or + state.
    e0 = -2.0 / 3.0
    for hz in (-2.3, -1.77, -2.9123, -1.0 + 1e-3 * qn):
        coeffs = EffectiveCoefficients(q=qn / 100, hx=0.0, hz=hz, hY=1.0 / np.sqrt(3.0))
        mu_star = (e0 - (hz + 1.0 / 3.0)) / (-2.0 * qn)
        assert 0.0 < mu_star < 1.0
        mf = hp_mean_field(coeffs, 100)
        assert mf.degenerate, hz
        assert abs(mf.z[0] ** 2 - mu_star) <= 1e-12, hz
        assert abs(mf.z[2]) <= 1e-12
        assert abs(mf.energy_per_atom - (e0 + qn * mu_star ** 2)) <= 1e-12


@pytest.mark.parametrize("omega_r, delta, eps", [
    (2.0, 0.0, 2.0), (4.0, 0.5, 2.0), (2.0, 0.5, 2.0), (2.0, 2.0, 2.0),
    (1.0, 2.0, 0.0), (2.0, 0.5, 0.0), (2.0, 2.0, 0.0), (4.0, 2.0, 0.0),
])
def test_depleted_condensate_raises_and_ed_confirms(omega_r, delta, eps):
    # the expansion about the central mode refused these points, whose mean
    # field leaves less than half of the atoms there (hence the name); in the
    # condensate's own frame each solves, and ED confirms its populations.
    # At delta = 0 the mean field is one of a tied mirror pair, and ED their
    # symmetric superposition, so there rho_0 and rho_+ + rho_- are compared
    n = 100
    coeffs = effective_coefficients(ModelParams(omega_R=omega_r, delta=delta, epsilon=eps, N=n))
    mf = hp_mean_field(coeffs, n)
    assert mf.z[1] ** 2 < 0.5
    got = populations(gaussian_moment_set(hp_quadratic(coeffs, n, mf.z)))
    ref = populations(ed_moment_set(ed_ground_state(coeffs, n)))
    assert ref[1] < 0.05
    assert mf.degenerate == (delta == 0.0)
    if mf.degenerate:
        assert abs(got[1] - ref[1]) <= 2e-3
        assert abs(got[0] + got[2] - ref[0] - ref[2]) <= 2e-3
    else:
        assert np.max(np.abs(np.subtract(got, ref))) <= 2e-3


@pytest.mark.parametrize("omega_r, delta, eps", [
    (2.0, 4.0, 0.0), (1.0, 6.0, -4.0), (5.0, 8.0, 2.0), (0.5, -3.0, -6.0),
])
def test_depleted_points_converge_to_ed_as_one_over_n(omega_r, delta, eps):
    # at four points the central-mode expansion refused, the largest
    # population error against ED halves with each doubling of N = 50, 100,
    # 200 (it is 2e-6 to 3.4e-4 at N = 50)
    errors = []
    for n in (50, 100, 200):
        coeffs = effective_coefficients(ModelParams(omega_R=omega_r, delta=delta, epsilon=eps, N=n))
        got = populations(gaussian_moment_set(solve_gaussian(coeffs, n)))
        ref = populations(ed_moment_set(ed_ground_state(coeffs, n)))
        errors.append(np.max(np.abs(np.subtract(got, ref))))
    assert errors[0] <= 1e-3
    assert all(0.45 <= b / a <= 0.55 for a, b in zip(errors, errors[1:])), errors


@pytest.mark.parametrize("omega_r, eps", [(0.01, -1e5), (1.0, -3e7)])
def test_nearly_empty_central_mode_solves_and_ed_confirms(omega_r, eps):
    # a strongly negative quadratic shift leaves about 1e-15 of the atoms in
    # the central mode, below the roundoff of the earlier chart's
    # s = sqrt(1 - |beta|^2), which lost s and refused these points as not
    # stationary.  At delta = 0 the mean field is one of a tied mirror pair,
    # and ED their symmetric superposition, so rho_0 and rho_+ + rho_- are
    # compared
    n = 200
    coeffs = effective_coefficients(ModelParams(omega_R=omega_r, delta=0.0, epsilon=eps, N=n))
    got = populations(gaussian_moment_set(solve_gaussian(coeffs, n)))
    ref = populations(ed_moment_set(ed_ground_state(coeffs, n)))
    assert ref[1] < 1e-12
    assert abs(got[1] - ref[1]) <= 2e-3
    assert abs(got[0] + got[2] - ref[0] - ref[2]) <= 2e-3


def test_nearly_empty_central_modes_solve():
    # 300 seeded points with a strongly negative quadratic shift, omega_R
    # log-uniform in 1e-3 to 10, |delta| < 8 and epsilon log-uniform in -1e2
    # to -1e10: the earlier chart refused 72 of them as not stationary; all
    # solve, more than a third with a central occupation below 1e-14
    rng = np.random.default_rng(0)
    empty = 0
    for _ in range(300):
        n = int(rng.choice([20, 200, 100000]))
        params = ModelParams(omega_R=10.0 ** rng.uniform(-3.0, 1.0), delta=rng.uniform(-8.0, 8.0),
                             epsilon=-10.0 ** rng.uniform(2.0, 10.0), N=n)
        sol = solve_gaussian(effective_coefficients(params), n)
        empty += sol.frame[1, 0] ** 2 < 1e-14
    assert empty >= 100, empty


def test_strong_drive_solves_at_every_point():
    # a strong drive tends to the lowest Jx eigenstate, whose central
    # occupation is exactly 1/2, so rounding decided the earlier depletion
    # threshold there (omega_R = 1e17 solved, 3.16e17 was refused); every one
    # of 35 log-spaced drives up to 1e20 solves, with finite moments and report
    for omega_r in np.logspace(3.0, 20.0, 35):
        coeffs = effective_coefficients(ModelParams(omega_R=omega_r, delta=0.0, epsilon=6.0, N=40))
        moments = gaussian_moment_set(solve_gaussian(coeffs, 40))
        assert np.isfinite(moments.means).all() and np.isfinite(moments.covariances).all()
        build_report(moments)


def test_frame_frequencies_match_the_chart_normal_form():
    # inside the wedge, where the central mode holds at least half of the
    # atoms and the earlier expansion about it held, the frame's frequencies
    # against the symplectic normal form of that expansion's chart Hessian
    rng = np.random.default_rng(51)
    checked = 0
    for _ in range(400):
        n = int(rng.choice([20, 200, 100000]))
        coeffs = effective_coefficients(ModelParams(
            omega_R=rng.uniform(0.0, 5.0), delta=rng.uniform(-3.0, 3.0),
            epsilon=rng.uniform(2.0, 12.0), N=n))
        mf = hp_mean_field(coeffs, n)
        if mf.z[1] ** 2 < 0.5 or mf.degenerate:
            continue
        v = np.array([mf.z[0], 0.0, mf.z[2], 0.0])
        ref = _normal_form(_oracle_hessian(v, coeffs, n) / 2.0)[0]
        got = hp_quadratic(coeffs, n, mf.z).frequencies
        assert np.all(np.abs(got - ref) <= 1e-12 * ref), (coeffs, n, got, ref)
        checked += 1
    assert checked >= 200, checked

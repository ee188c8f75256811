"""Mean-field plus Gaussian-fluctuation treatment of the collective Hamiltonian.

The two side modes are treated as bosonic fluctuations on top of a
macroscopically occupied central mode.  The classical (per-atom) energy
surface is minimized over the two complex side-mode amplitudes (a 2-D search,
since the phases have a closed form); the quadratic
expansion around the minimum is brought to normal form symplectically, giving
the ground-state covariance of the quadratures (x+, p+, x-, p-).  Collective
observables are then evaluated by Gaussian moment formulas.

Conventions: quadrature vector R = (x+, p+, x-, p-) with [x, p] = i, so the
vacuum covariance is diag(1/2) and displacements d(mode) = (x + i p)/sqrt(2).
"""

from dataclasses import dataclass

import numpy as np

from .algebra import GENERATOR_LABELS, generator_matrix
from .errors import (
    ConfigError,
    ConvergenceError,
    DepletedCondensateError,
    UnstableExpansionError,
)
from .metrics import GENERATOR_SPECS, MomentSet, spec_moments

GRAD_TOL_ACCEPT = 1e-10   # mean-field stationarity required of a returned point
GRAD_TOL_EXPAND = 1e-8    # stationarity required before a quadratic expansion
MIN_CENTRAL_OCCUPATION = 0.5  # below this s^2 the expansion around the central mode fails
_GRID_POINTS = 41         # per axis of the coarse search grid (see _energy_grid)
_NEWTON_MAX_STEPS = 50
_NEIGHBOURS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
_PLANE = [0, 2]           # the (x+, x-) entries of v = (x+, y+, x-, y-)

# symplectic form of (x+, p+, x-, p-)
OMEGA = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])

_D1 = np.diag([1.0, 1.0, -1.0, -1.0])
_EG = np.array([1.0, 0.0, 1.0, 0.0])
_S_FLOOR = 1e-14


def _split(v):
    rho_p = v[0] ** 2 + v[1] ** 2
    rho_m = v[2] ** 2 + v[3] ** 2
    s = np.sqrt(np.maximum(1.0 - rho_p - rho_m, _S_FLOOR))
    return rho_p, rho_m, s


def classical_energy(v, coeffs, n_atoms):
    """Per-atom energy of side-mode amplitudes v = (x+, y+, x-, y-).

    ``v`` may carry trailing axes, giving the energy at every point of a grid.
    """
    a = coeffs.q * n_atoms
    omega = np.sqrt(2.0) * coeffs.hx
    rho_p, rho_m, s = _split(v)
    w = rho_p - rho_m
    g = v[0] + v[2]
    return (
        -a * w * w
        + omega * s * g
        + coeffs.hz * w
        + np.sqrt(3.0) * coeffs.hY * (rho_p + rho_m)
        - 2.0 * coeffs.hY / np.sqrt(3.0)
    )


def classical_gradient(v, coeffs, n_atoms):
    a = coeffs.q * n_atoms
    omega = np.sqrt(2.0) * coeffs.hx
    rho_p, rho_m, s = _split(v)
    w = rho_p - rho_m
    g = v[0] + v[2]
    vs = _D1 @ v
    return (
        -4.0 * a * w * vs
        + omega * (s * _EG - (g / s) * v)
        + 2.0 * coeffs.hz * vs
        + 2.0 * np.sqrt(3.0) * coeffs.hY * v
    )


def classical_hessian(v, coeffs, n_atoms):
    a = coeffs.q * n_atoms
    omega = np.sqrt(2.0) * coeffs.hx
    rho_p, rho_m, s = _split(v)
    w = rho_p - rho_m
    g = v[0] + v[2]
    vs = _D1 @ v
    eye = np.eye(4)
    h = -8.0 * a * np.outer(vs, vs) - 4.0 * a * w * _D1
    h += omega * (
        -(np.outer(_EG, v) + np.outer(v, _EG)) / s
        - g * (eye / s + np.outer(v, v) / s**3)
    )
    h += 2.0 * coeffs.hz * _D1 + 2.0 * np.sqrt(3.0) * coeffs.hY * eye
    return h


@dataclass(frozen=True)
class MeanFieldResult:
    """Optimal side-mode amplitudes and diagnostics of the search."""

    beta_p: complex
    beta_m: complex
    energy_per_atom: float
    grad_norm: float
    degenerate: bool

    def as_vector(self):
        return np.array([self.beta_p.real, self.beta_p.imag,
                         self.beta_m.real, self.beta_m.imag])


def _energy_grid(coeffs, n_atoms):
    """The energy on a coarse grid that covers the real (x+, x-) disk.

    The grid is square in p, with x = p sin(pi |p| / 2) / |p| and so
    s = cos(pi |p| / 2): its points are evenly spaced in angle on the
    hemisphere (s, x+, x-), which resolves the rim s -> 0 as well as the
    centre.  Returns the points as (x+, x-) arrays, their energies (inf
    outside |p| <= 1) and the mask of the interior local minima.
    """
    p = np.linspace(-1.0, 1.0, _GRID_POINTS)
    pp, pm = np.meshgrid(p, p, indexing="ij")
    radius = np.hypot(pp, pm)
    scale = 0.5 * np.pi * np.sinc(0.5 * radius)  # sin(pi r / 2) / r
    xp, xm = scale * pp, scale * pm
    zero = np.zeros_like(xp)
    inside = radius <= 1.0
    energy = np.where(inside, classical_energy(np.array([xp, zero, xm, zero]),
                                               coeffs, n_atoms), np.inf)
    padded = np.pad(energy, 1, constant_values=np.inf)
    n = _GRID_POINTS
    neighbours = np.array([padded[1 + di:1 + di + n, 1 + dj:1 + dj + n]
                           for di, dj in _NEIGHBOURS])
    rim = np.any(np.isinf(neighbours), axis=0)
    minima = inside & ~rim & np.all(energy <= neighbours, axis=0)
    return xp, xm, energy, minima


def _polish(start, coeffs, n_atoms):
    """2x2 Newton on the real (x+, x-) plane from a grid point.

    Steps along -|H|^-1 g (plain Newton where the Hessian is positive
    definite, a descent direction elsewhere) and halves a step that leaves
    the disk or raises the energy beyond roundoff.
    """
    v = np.array([start[0], 0.0, start[1], 0.0])
    e = classical_energy(v, coeffs, n_atoms)
    for _ in range(_NEWTON_MAX_STEPS):
        g = classical_gradient(v, coeffs, n_atoms)[_PLANE]
        w, u = np.linalg.eigh(classical_hessian(v, coeffs, n_atoms)[np.ix_(_PLANE, _PLANE)])
        step = -u @ ((u.T @ g) / np.maximum(np.abs(w), 1e-12))
        slack = 1e-13 * max(1.0, abs(e))
        while True:
            trial = v.copy()
            trial[_PLANE] += step
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


def hp_mean_field(coeffs, n_atoms):
    """Minimize the classical energy over the two side-mode amplitudes.

    The energy depends on the side-mode phases only through the drive term
    omega s (x+ + x-), so a global minimum lies on the real plane
    y+ = y- = 0, with x+ and x- of the sign of -omega.  The search runs over
    the real disk x+^2 + x-^2 < 1: the local minima of a coarse grid are
    polished by 2x2 Newton on (x+, x-).  Accepted points must have
    gradient norm <= 1e-10, lie inside the unit ball and have a
    positive-semidefinite 4x4 Hessian; the lowest-energy accepted point
    wins.  Distinct minimizers tied in energy mark the result degenerate
    (symmetry-broken pairs, or the free phase at omega = 0).

    Raises DepletedCondensateError when the global minimum leaves less than
    MIN_CENTRAL_OCCUPATION in the central mode, or when a grid point that
    does lies below every accepted minimum (for instance on the rim, where
    the minimum is closer to s = 0 than the grid resolves): the
    Holstein-Primakoff expansion does not hold there.
    """
    args = (coeffs, n_atoms)
    xp, xm, energy, minima = _energy_grid(*args)
    accepted = []
    best_grad = np.inf
    for start in zip(xp[minima], xm[minima]):
        v = _polish(start, *args)
        gn = float(np.linalg.norm(classical_gradient(v, *args)))
        best_grad = min(best_grad, gn)
        if gn > GRAD_TOL_ACCEPT:
            continue
        if v[0] ** 2 + v[1] ** 2 + v[2] ** 2 + v[3] ** 2 >= 1.0:
            continue
        hess_min = float(np.linalg.eigvalsh(classical_hessian(v, *args))[0])
        if hess_min < -1e-9 * max(1.0, abs(coeffs.hY)):
            continue  # saddle point, not a minimum
        accepted.append((float(classical_energy(v, *args)), gn, v))
    accepted.sort(key=lambda t: t[0])
    context = {"coeffs": coeffs, "N": n_atoms}
    depleted = np.where(1.0 - xp * xp - xm * xm < MIN_CENTRAL_OCCUPATION, energy, np.inf)
    i_dep = np.unravel_index(np.argmin(depleted), depleted.shape)
    if accepted:
        depleted_lowest = depleted[i_dep] < accepted[0][0]
    else:
        depleted_lowest = depleted[i_dep] == np.min(energy)
    if depleted_lowest:
        _raise_depleted(xp[i_dep] ** 2, xm[i_dep] ** 2, context,
                        "the energy is lowest in the depleted part of the search grid")
    if not accepted:
        raise ConvergenceError(
            f"no mean-field start converged; best gradient norm {best_grad:.3e}",
            context=context,
        )
    e_best, gn_best, v_best = accepted[0]
    rho_p = v_best[0] ** 2 + v_best[1] ** 2
    rho_m = v_best[2] ** 2 + v_best[3] ** 2
    if 1.0 - rho_p - rho_m < MIN_CENTRAL_OCCUPATION:
        _raise_depleted(rho_p, rho_m, context, "the global minimum depletes the central mode")
    distinct = [v_best]
    for e, _, v in accepted[1:]:
        if e - e_best > 1e-10:
            break
        if all(np.max(np.abs(v - u)) > 1e-6 for u in distinct):
            distinct.append(v)
    return MeanFieldResult(
        beta_p=complex(v_best[0], v_best[1]),
        beta_m=complex(v_best[2], v_best[3]),
        energy_per_atom=e_best,
        grad_norm=gn_best,
        degenerate=len(distinct) > 1,
    )


def _raise_depleted(rho_p, rho_m, context, reason):
    rho_0 = 1.0 - rho_p - rho_m
    raise DepletedCondensateError(
        f"{reason}: rho_0 = {rho_0:.4f} < {MIN_CENTRAL_OCCUPATION}, "
        f"|beta+|^2 = {rho_p:.4f}, |beta-|^2 = {rho_m:.4f}; "
        "the Holstein-Primakoff expansion does not hold",
        context={**context, "rho_0": rho_0, "rho_p": rho_p, "rho_m": rho_m},
    )


@dataclass(frozen=True)
class GaussianSolution:
    """Mean field plus the Gaussian ground state of the fluctuation modes."""

    N: int
    beta_p: complex
    beta_m: complex
    covariance: np.ndarray       # 4x4 over (x+, p+, x-, p-)
    frequencies: np.ndarray      # the two normal-mode frequencies, descending
    energy_per_atom: float
    zero_point_energy: float     # O(1) correction to N * energy_per_atom


def hp_quadratic(coeffs, n_atoms, mean_field):
    """Expand to second order around a stationary point and solve the normal form.

    Keeps every second-order term of the expansion.  The quadratic form must
    be positive definite (the stationary point is a stable minimum); if not,
    the symplectic spectrum is reported in the raised error.  The returned
    covariance has symplectic eigenvalues exactly 1/2 up to roundoff (pure
    Gaussian ground state).
    """
    if isinstance(mean_field, MeanFieldResult):
        v = mean_field.as_vector()
    else:
        v = np.asarray(mean_field, dtype=float)
        if v.shape != (4,):
            raise ConfigError("mean_field must be a MeanFieldResult or a 4-vector")
    gn = float(np.linalg.norm(classical_gradient(v, coeffs, n_atoms)))
    if gn > GRAD_TOL_EXPAND:
        raise ConfigError(
            f"quadratic expansion requires a stationary point; gradient norm {gn:.3e}"
        )
    m = classical_hessian(v, coeffs, n_atoms) / 2.0
    w_m, u_m = np.linalg.eigh(m)
    if w_m[0] <= 0.0:
        modes = np.linalg.eigvals(OMEGA @ m)
        worst = modes[np.argmax(np.abs(modes.real))]
        raise UnstableExpansionError(
            f"quadratic form not positive definite (min eigenvalue {w_m[0]:.3e}); "
            f"offending normal mode {worst}",
            frequency=worst,
        )
    w_sqrt = u_m @ np.diag(np.sqrt(w_m)) @ u_m.T
    w_inv = u_m @ np.diag(1.0 / np.sqrt(w_m)) @ u_m.T
    t = w_sqrt @ OMEGA @ w_sqrt
    tt = t @ t.T
    w_tt, u_tt = np.linalg.eigh(tt)
    abs_t = u_tt @ np.diag(np.sqrt(np.maximum(w_tt, 0.0))) @ u_tt.T
    sigma = 0.5 * w_inv @ abs_t @ w_inv
    sigma = 0.5 * (sigma + sigma.T)
    freqs = np.linalg.svd(t, compute_uv=False)  # each frequency appears twice
    energy = float(classical_energy(v, coeffs, n_atoms))
    zero_point = float(0.5 * np.trace(m @ sigma) - 0.25 * np.trace(m))
    return GaussianSolution(
        N=int(n_atoms),
        beta_p=complex(v[0], v[1]),
        beta_m=complex(v[2], v[3]),
        covariance=sigma,
        frequencies=freqs[[0, 2]].copy(),
        energy_per_atom=energy,
        zero_point_energy=zero_point,
    )


def _symbol_pieces(matrix3, u, n_atoms):
    """Value, gradient and Hessian of one generator's classical symbol.

    The symbol is the expectation in the displaced product state, written in
    the four real mode coordinates u (unscaled, so |u|^2 counts atoms).
    """
    s_t = np.sqrt(max(n_atoms - u @ u, _S_FLOOR))
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
    """(constant, linear coefficients, quadratic form) of one generator.

    Observables that transfer atoms with the condensate mode are kept to
    linear order in the fluctuations (their quadratic piece is 1/sqrt(N)
    suppressed); pure number/side-mode bilinears keep their exact quadratic
    form, with the Weyl-ordering constant folded into the scalar part.
    """
    value, grad, hess, coupled = _symbol_pieces(matrix3, u, n_atoms)
    if coupled:
        return value, grad / np.sqrt(2.0), np.zeros((4, 4))
    f = hess / 2.0
    return value - np.trace(f) / 4.0, grad / np.sqrt(2.0), f


def _generator_moments(solution):
    """Means (8,) and symmetrized covariances (8, 8) of the eight generators.

    Uses <O> = c + tr(F sigma)/2 and the Gaussian covariance formula
    Cov(O1, O2) = a1.sigma.a2 + tr(F1 sigma F2 sigma)/2 + tr(F1 W F2 W)/8
    with W the symplectic form (the last term is the Weyl-ordering
    correction; it vanishes for commuting quadratics).
    """
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


def gaussian_moments(solution, specs):
    """Means and symmetrized covariances of observables in the Gaussian state.

    ``specs`` is a list of CollectiveOperatorSpec or SpinOperator, projected
    from the generator moments by ``metrics.spec_moments``.
    """
    return spec_moments(*_generator_moments(solution), specs)


def gaussian_moment_set(solution):
    """Full eight-operator MomentSet of a Gaussian solution."""
    return MomentSet(solution.N, *gaussian_moments(solution, GENERATOR_SPECS))


def solve_gaussian(coeffs, n_atoms):
    """Convenience: mean field, quadratic expansion, Gaussian solution."""
    mf = hp_mean_field(coeffs, n_atoms)
    return hp_quadratic(coeffs, n_atoms, mf)

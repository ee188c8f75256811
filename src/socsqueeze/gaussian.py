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

from .algebra import generator_matrix, generator_stack
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
_PLANE = slice(0, 4, 2)   # the (x+, x-) entries of v = (x+, y+, x-, y-)

# symplectic form of (x+, p+, x-, p-)
OMEGA = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])

_S_FLOOR = 1e-14
# the per-atom energy is -qN<Jz>^2 + <L>, with L = hz Jz + hx Jx + hY Y
_ENERGY_GENERATORS = np.stack([generator_matrix(lbl) for lbl in ("Jz", "Jx", "Y")])
_GENERATORS = generator_stack()
_CONDENSATE_COUPLED = (_GENERATORS[:, 0, 1] != 0.0) | (_GENERATORS[:, 2, 1] != 0.0)
# dz/du of z = (x+ + i y+, s, x- + i y-), less its central row -u/s
_SIDE_JACOBIAN = np.array([[1.0, 1j, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1j]])


def _product_state(u, n_atoms):
    """z = (beta+, s, beta-) and s = sqrt(n - |u|^2) of mode coordinates u.

    u = (x+, y+, x-, y-) may carry trailing axes; s is floored so that points
    on or beyond the rim stay finite.
    """
    s = np.sqrt(np.maximum(n_atoms - np.einsum("i...,i...->...", u, u), _S_FLOOR))
    z = np.einsum("ij,j...->i...", _SIDE_JACOBIAN, u)
    z[1] = s
    return z, s


def _symbol_value(mats, z):
    """z^dag G z for each Hermitian G of the stack mats (k, 3, 3), shape (k, ...)."""
    return np.einsum("i...,kij,j...->k...", z.conj(), mats, z).real


def _symbol(mats, u, n_atoms):
    """Value, gradient and Hessian in u of the classical symbol z^dag G z.

    The symbol is the expectation of each generator G of the stack mats
    (k, 3, 3) in the displaced product state z = (beta+, s, beta-), at one
    point u = (x+, y+, x-, y-) (unscaled, so |u|^2 counts atoms).  With
    J = dz/du, the gradient is 2 Re((Gz)^dag J) and the Hessian is
    2 Re(J^dag G J) + 2 Re((Gz)_1) d2s, where (Gz)_1 is the central (m = 0)
    entry and d2s = -(I/s + u u^T/s^3) the Hessian of s.  Returns arrays of
    shape (k,), (k, 4) and (k, 4, 4).
    """
    z, s = _product_state(u, n_atoms)
    jac = _SIDE_JACOBIAN.copy()
    jac[1] = -u / s
    gz = mats @ z
    d2s = -(np.eye(4) / s + u[:, None] * u / s**3)
    hess = 2.0 * (jac.conj().T @ mats @ jac).real + (2.0 * gz[:, 1].real)[:, None, None] * d2s
    return _symbol_value(mats, z), 2.0 * (gz.conj() @ jac).real, hess


def classical_energy(v, coeffs, n_atoms):
    """Per-atom energy of side-mode amplitudes v = (x+, y+, x-, y-).

    ``v`` may carry trailing axes, giving the energy at every point of a grid.
    """
    jz, jx, y = _symbol_value(_ENERGY_GENERATORS, _product_state(v, 1.0)[0])
    return -coeffs.q * n_atoms * jz * jz + coeffs.hz * jz + coeffs.hx * jx + coeffs.hY * y


def _energy_derivatives(v, coeffs, n_atoms):
    """Gradient and Hessian of the per-atom energy at one point, by the chain rule."""
    (jz, _, _), grad, hess = _symbol(_ENERGY_GENERATORS, v, 1.0)
    a = -2.0 * coeffs.q * n_atoms
    w = np.array([coeffs.hz, coeffs.hx, coeffs.hY])
    gradient = a * jz * grad[0] + w @ grad
    hessian = a * (grad[0][:, None] * grad[0] + jz * hess[0]) + np.einsum("k,kij->ij", w, hess)
    return gradient, hessian


def classical_gradient(v, coeffs, n_atoms):
    return _energy_derivatives(v, coeffs, n_atoms)[0]


def classical_hessian(v, coeffs, n_atoms):
    return _energy_derivatives(v, coeffs, n_atoms)[1]


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
        g, h = _energy_derivatives(v, coeffs, n_atoms)
        w, u = np.linalg.eigh(h[_PLANE, _PLANE])
        step = -u @ ((u.T @ g[_PLANE]) / np.maximum(np.abs(w), 1e-12))
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
    MIN_CENTRAL_OCCUPATION in the central mode, or when a grid point with
    s^2 < MIN_CENTRAL_OCCUPATION lies below every accepted minimum (is the
    lowest grid point, if none is accepted), for instance on the rim, where
    the minimum is closer to s = 0 than the grid resolves: the
    Holstein-Primakoff expansion does not hold there.
    """
    args = (coeffs, n_atoms)
    xp, xm, energy, minima = _energy_grid(*args)
    accepted = []
    best_grad = np.inf
    for start in zip(xp[minima], xm[minima]):
        v = _polish(start, *args)
        g, h = _energy_derivatives(v, *args)
        gn = float(np.linalg.norm(g))
        best_grad = min(best_grad, gn)
        if gn > GRAD_TOL_ACCEPT:
            continue
        if v @ v >= 1.0:
            continue
        hess_min = float(np.linalg.eigvalsh(h)[0])
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
    g, h = _energy_derivatives(v, coeffs, n_atoms)
    gn = float(np.linalg.norm(g))
    if gn > GRAD_TOL_EXPAND:
        raise ConfigError(
            f"quadratic expansion requires a stationary point; gradient norm {gn:.3e}"
        )
    m = h / 2.0
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


def _generator_moments(solution):
    """Means (8,) and symmetrized covariances (8, 8) of the eight generators.

    Each generator is expanded to second order in the fluctuations around the
    mean field by its classical symbol: constant c, linear coefficients
    a = grad/sqrt(2) and quadratic form F = hess/2.  Generators that transfer
    atoms with the condensate mode (G[+1, 0] or G[-1, 0] nonzero) are kept to
    linear order (their quadratic piece is 1/sqrt(N) suppressed); pure
    number/side-mode bilinears keep their exact quadratic form, with the
    Weyl-ordering constant -tr(F)/4 folded into c.  Then
    <O> = c + tr(F sigma)/2 and
    Cov(O1, O2) = a1.sigma.a2 + tr(F1 sigma F2 sigma)/2 + tr(F1 W F2 W)/8
    with W the symplectic form (the last term is the Weyl-ordering
    correction; it vanishes for commuting quadratics).
    """
    u = np.sqrt(solution.N) * np.array([
        solution.beta_p.real, solution.beta_p.imag,
        solution.beta_m.real, solution.beta_m.imag,
    ])
    sigma = solution.covariance
    value, grad, hess = _symbol(_GENERATORS, u, solution.N)
    f = np.where(_CONDENSATE_COUPLED[:, None, None], 0.0, hess / 2.0)
    f_sigma = f @ sigma
    f_omega = f @ OMEGA
    means = value - np.trace(f, axis1=1, axis2=2) / 4.0 + 0.5 * np.trace(f_sigma, axis1=1, axis2=2)
    cov = (0.5 * grad @ sigma @ grad.T
           + 0.5 * np.einsum("iab,jba->ij", f_sigma, f_sigma)
           + 0.125 * np.einsum("iab,jba->ij", f_omega, f_omega))
    return means, 0.5 * (cov + cov.T)


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

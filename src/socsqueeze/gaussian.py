"""Mean-field plus Gaussian-fluctuation treatment of the collective Hamiltonian.

The two side modes are treated as bosonic fluctuations on top of a
macroscopically occupied central mode.  The classical (per-atom) energy
is minimized over the two complex side-mode amplitudes as the lowest
eigenvector of a 3x3 matrix in a self-consistent effective Zeeman field (a
1-D search over the self-consistent <Jz>); the quadratic
expansion around the minimum is brought to normal form symplectically, giving
the ground-state covariance of the quadratures (x+, p+, x-, p-).  Collective
observables are then evaluated by Gaussian moment formulas.

Conventions: quadrature vector R = (x+, p+, x-, p-) with [x, p] = i, so the
vacuum covariance is diag(1/2) and displacements d(mode) = (x + i p)/sqrt(2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import generator_matrix, generator_stack
from .errors import (
    ConfigError,
    ConvergenceError,
    DepletedCondensateError,
    UnstableExpansionError,
)
from .metrics import MomentSet

# gradient norms and Hessian eigenvalues round at about eps times the energy
# scale (see _energy_scale), so every tolerance on them is relative to it
GRAD_TOL_ACCEPT = 1e-10   # mean-field stationarity required of a returned point
GRAD_TOL_EXPAND = 1e-8    # stationarity required before a quadratic expansion
HESS_TOL = 1e-9           # least Hessian eigenvalue of a returned point, negated
MIN_CENTRAL_OCCUPATION = 0.5  # below this s^2 the expansion around the central mode fails
_SCAN = np.linspace(-1.0, 1.0, 201)  # mu points of the crossing scan (see _crossings)
_BISECTIONS = 52          # shrink a 0.01 scan bracket to about 2e-18

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
_JZ = _ENERGY_GENERATORS[0].real
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


def _energy_scale(coeffs, n_atoms):
    """The size of the per-atom energy's terms, at least 1: the largest of
    |q| N, |hx|, |hz| and |hY|."""
    return max(1.0, abs(coeffs.q) * n_atoms, abs(coeffs.hx), abs(coeffs.hz), abs(coeffs.hY))


def _gradient_norm(g, context):
    """The norm of a mean-field gradient; ConvergenceError naming the overflow
    where its square is past the largest float64."""
    with np.errstate(over="ignore"):
        gn = float(np.linalg.norm(g))
    if not math.isfinite(gn):
        raise ConvergenceError("the mean-field gradient norm overflows float64; "
                               "the Hamiltonian coefficients are too large", context=context)
    return gn


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


def _self_consistent_states(base, slope, mu):
    """Ascending eigenvalues and eigenvectors of A(mu) = base - slope mu Jz, per mu of an array."""
    return np.linalg.eigh(base - (slope * mu)[:, None, None] * _JZ)


def _crossings(base, slope):
    """The upward zero crossings of h(mu) = mu - <Jz>_0(mu) on [-1, 1].

    <Jz>_0 is the Jz expectation of the lowest eigenvector of A(mu).  Since
    |<Jz>_0| <= 1, h < 0 below mu = -1 and h(1) >= 0, so a scan point with
    h >= 0 that follows one with h < 0 (or is mu = -1 itself) brackets a
    crossing, and a zero exactly on a scan point counts once.  All brackets
    are closed together by bisection, which also closes on a jump of h where
    lambda_0 is degenerate.
    """
    def h(mu):
        vecs = _self_consistent_states(base, slope, mu)[1]
        return mu - vecs[:, 0, 0] ** 2 + vecs[:, 2, 0] ** 2

    above = h(_SCAN) >= 0.0
    up = np.flatnonzero(above & ~np.concatenate(([False], above[:-1])))
    lo, hi = _SCAN[np.maximum(up - 1, 0)], _SCAN[up]
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        mid_above = h(mid) >= 0.0
        lo, hi = np.where(mid_above, lo, mid), np.where(mid_above, mid, hi)
    return hi


def _degenerate_mix(e0, e1, mu):
    """The real mix of a degenerate eigenpair e0, e1 whose <Jz> is mu.

    <Jz> of cos(t) e0 + sin(t) e1 is m + d cos(2t) + c sin(2t), with m and d
    the mean and half difference of the pair's own <Jz> and c = e0^T Jz e1;
    with r = hypot(d, c) that is m + r cos(2t - atan2(c, d)).
    """
    a, b, cross = e0 @ _JZ @ e0, e1 @ _JZ @ e1, e0 @ _JZ @ e1
    r = np.hypot(0.5 * (a - b), cross)
    cos_arg = np.clip((mu - 0.5 * (a + b)) / r, -1.0, 1.0) if r > 0.0 else 1.0
    t = 0.5 * (np.arctan2(cross, 0.5 * (a - b)) + np.arccos(cos_arg))
    return np.cos(t) * e0 + np.sin(t) * e1


def _classical_minimum(coeffs, n_atoms):
    """Global minimum of the per-atom classical energy, without any check.

    The per-atom energy -qN j^2 + z^dag L z, with j = z^dag Jz z and
    L = hz Jz + hx Jx + hY Y, is minimized by the lowest eigenvector of
    A(mu) = L - 2qN mu Jz at a self-consistent mu = j: for q > 0 because
    -qN j^2 = min_mu (qN mu^2 - 2qN mu j), for q < 0 because the joint
    numerical range of (L, Jz) is convex, so the Lagrange dual is exact.  A
    is real, so the amplitudes are real, with x+ and x- of the sign of
    -omega once the central amplitude s is taken >= 0.  The candidates are
    the upward zero crossings of mu - <Jz>_0(mu) on [-1, 1], found by a
    201-point scan and closed by bisection.  Where lambda_0 is degenerate at
    a crossing (only at omega = 0) the minimizer is the mix of the pair with
    <Jz> = mu, and its relative phase is free.

    Returns (z, energy, free_phase): the unit amplitudes (beta+, s, beta-)
    of every candidate within 1e-10 of the lowest per-atom energy, one per
    row with the lowest first; that energy; and whether the lowest has a
    free phase.
    """
    base = np.einsum("k,kij->ij", [coeffs.hz, coeffs.hx, coeffs.hY], _ENERGY_GENERATORS.real)
    slope = 2.0 * coeffs.q * n_atoms
    mu = _crossings(base, slope)
    w, vecs = _self_consistent_states(base, slope, mu)
    z = vecs[:, :, 0].copy()
    free_phase = w[:, 1] - w[:, 0] <= 1e-12 * np.maximum(1.0, np.max(np.abs(w), axis=1))
    for i in np.flatnonzero(free_phase):
        z[i] = _degenerate_mix(vecs[i, :, 0], vecs[i, :, 1], mu[i])
    z *= np.where(z[:, 1] < 0.0, -1.0, 1.0)[:, None]
    zero = np.zeros_like(mu)
    energies = classical_energy(np.array([z[:, 0], zero, z[:, 2], zero]), coeffs, n_atoms)
    order = np.argsort(energies, kind="stable")
    tied = order[energies[order] - energies[order[0]] <= 1e-10]
    return z[tied], float(energies[tied[0]]), bool(free_phase[tied[0]])


def hp_mean_field(coeffs, n_atoms):
    """Minimize the classical energy over the two side-mode amplitudes.

    The minimum is that of ``_classical_minimum``.  A free phase, or
    distinct candidates tied in energy within 1e-10 (symmetry-broken pairs),
    mark the result degenerate.

    Raises DepletedCondensateError when the global minimum leaves less than
    MIN_CENTRAL_OCCUPATION in the central mode: the Holstein-Primakoff
    expansion does not hold there.  Raises ConvergenceError unless the
    winner has gradient norm <= GRAD_TOL_ACCEPT and a 4x4 Hessian whose
    eigenvalues are >= -HESS_TOL, each times the energy scale, or where the
    gradient norm overflows float64.
    """
    args = (coeffs, n_atoms)
    context = {"coeffs": coeffs, "N": n_atoms}
    z, energy, free_phase = _classical_minimum(*args)
    v_best = np.array([z[0, 0], 0.0, z[0, 2], 0.0])
    rho_p, rho_m = v_best[0] ** 2, v_best[2] ** 2
    if 1.0 - rho_p - rho_m < MIN_CENTRAL_OCCUPATION:
        rho_0 = 1.0 - rho_p - rho_m
        raise DepletedCondensateError(
            f"the global minimum depletes the central mode: rho_0 = {rho_0:.4f} < "
            f"{MIN_CENTRAL_OCCUPATION}, |beta+|^2 = {rho_p:.4f}, |beta-|^2 = {rho_m:.4f}; "
            "the Holstein-Primakoff expansion does not hold",
            context={**context, "rho_0": rho_0, "rho_p": rho_p, "rho_m": rho_m},
        )
    g, h = _energy_derivatives(v_best, *args)
    gn = _gradient_norm(g, context)
    hess_min = float(np.linalg.eigvalsh(h)[0])
    scale = _energy_scale(*args)
    if gn > GRAD_TOL_ACCEPT * scale or hess_min < -HESS_TOL * scale:
        raise ConvergenceError(
            f"the self-consistent mean field is not a minimum: gradient norm {gn:.3e}, "
            f"lowest Hessian eigenvalue {hess_min:.3e}",
            context=context,
        )
    return MeanFieldResult(
        beta_p=complex(v_best[0], v_best[1]),
        beta_m=complex(v_best[2], v_best[3]),
        energy_per_atom=energy,
        grad_norm=gn,
        degenerate=free_phase or len(z) > 1,
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


def hp_quadratic(coeffs, n_atoms, mean_field):
    """Expand to second order around a stationary point and solve the normal form.

    Keeps every second-order term of the expansion.  The point must be
    stationary within GRAD_TOL_EXPAND times the energy scale.  The quadratic
    form must be positive definite (the stationary point is a stable
    minimum); if not, the symplectic spectrum is reported in the raised
    error.  The returned covariance has symplectic eigenvalues exactly 1/2 up
    to roundoff (pure Gaussian ground state).  The normal form squares the
    mode frequencies: where that overflows float64, ConvergenceError.
    """
    if isinstance(mean_field, MeanFieldResult):
        v = mean_field.as_vector()
    else:
        v = np.asarray(mean_field, dtype=float)
        if v.shape != (4,) or not np.isfinite(v).all():
            raise ConfigError("mean_field must be a MeanFieldResult or a finite 4-vector")
    context = {"coeffs": coeffs, "N": n_atoms}
    g, h = _energy_derivatives(v, coeffs, n_atoms)
    gn = _gradient_norm(g, context)
    if gn > GRAD_TOL_EXPAND * _energy_scale(coeffs, n_atoms):
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
    with np.errstate(over="ignore", invalid="ignore"):
        tt = t @ t.T
    if not np.isfinite(tt).all():
        raise ConvergenceError("the squared mode frequencies overflow float64; "
                               "the Hamiltonian coefficients are too large", context=context)
    w_tt, u_tt = np.linalg.eigh(tt)
    freqs = np.sqrt(np.maximum(w_tt, 0.0))  # ascending, each frequency twice
    abs_t = u_tt @ np.diag(freqs) @ u_tt.T
    sigma = 0.5 * w_inv @ abs_t @ w_inv
    sigma = 0.5 * (sigma + sigma.T)
    energy = float(classical_energy(v, coeffs, n_atoms))
    return GaussianSolution(
        N=int(n_atoms),
        beta_p=complex(v[0], v[1]),
        beta_m=complex(v[2], v[3]),
        covariance=sigma,
        frequencies=freqs[[3, 1]],
        energy_per_atom=energy,
    )


def gaussian_moment_set(solution):
    """Full eight-operator MomentSet of a Gaussian solution: means (8,) and
    symmetrized covariances (8, 8) of the eight generators.

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
    return MomentSet(solution.N, means, 0.5 * (cov + cov.T))


def solve_gaussian(coeffs, n_atoms):
    """Convenience: mean field, quadratic expansion, Gaussian solution."""
    mf = hp_mean_field(coeffs, n_atoms)
    return hp_quadratic(coeffs, n_atoms, mf)

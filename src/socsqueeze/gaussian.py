"""Mean-field plus Gaussian-fluctuation treatment of the collective Hamiltonian.

The mean field is the condensate mode z = (beta+, s, beta-), the real unit
spinor with s >= 0 that minimizes the classical (per-atom) energy: the lowest
eigenvector of the real 3x3 matrix A = L - 2qN<Jz>Jz in a self-consistent
effective Zeeman field (a 1-D search over the self-consistent <Jz>).  z is
the mean field's only coordinate: the energy, the stationarity test and the
expansion all take it as it is, so a nearly empty central mode (s near 0) is
an ordinary point.  The fluctuations are the number-conserving Bogoliubov
expansion about that mode (Castin and Dum, PRA 57, 3008 (1998); for spinor
gases Kawaguchi and Ueda, Phys. Rep. 520, 253 (2012)).  In the
frame U = (z, e1, e2) of A's eigenvectors the two side modes b1, b2 carry
H2 = p^T D p / 2 + x^T K x / 2, with the gaps D = diag(lambda_a - lambda_0),
the couplings c_a = z^T Jz e_a and K = D - 4qN c c^T.  With
M = D^1/2 K D^1/2 the mode frequencies are sqrt(eig M), and the ground state
has <x x^T> = D^1/2 M^-1/2 D^1/2 / 2 and <p p^T> = D^-1/2 M^1/2 D^-1/2 / 2.
Collective observables are then evaluated by Gaussian moment formulas.

Conventions: frame quadratures R = (X1, P1, X2, P2) with
b_a = (X_a + i P_a)/sqrt(2) and [X, P] = i, so the vacuum covariance is
diag(1/2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import generator_matrix, generator_stack
from .crossing import _NEWTON_TOL, _refine_crossings
from .errors import ConfigError, ConvergenceError, UnstableExpansionError
from .metrics import MomentSet

# gradient norms and mode energies round at about eps times the energy scale
# (see _energy_scale), so every tolerance on them is relative to it
GRAD_TOL_ACCEPT = 1e-10   # mean-field stationarity required of a returned point
GRAD_TOL_EXPAND = 1e-8    # stationarity required before a quadratic expansion
MODE_TOL = 1e-12          # a gap or K eigenvalue at or below this is a zero mode
_SCAN = np.linspace(-1.0, 1.0, 201)  # mu points of the crossing scan (see _crossings)

# symplectic form of (X1, P1, X2, P2)
OMEGA = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])

# the per-atom energy is -qN<Jz>^2 + <L>, with L = hz Jz + hx Jx + hY Y
_ENERGY_GENERATORS = np.stack([generator_matrix(lbl) for lbl in ("Jz", "Jx", "Y")])
_JZ = _ENERGY_GENERATORS[0].real
_GENERATORS = generator_stack()


def _symbol_value(mats, z):
    """z^dag G z for each Hermitian G of the stack mats (k, 3, 3), shape (k, ...)."""
    return np.einsum("i...,kij,j...->k...", z.conj(), mats, z).real


def classical_energy(z, coeffs, n_atoms):
    """Per-atom energy -qN <Jz>^2 + <L> of the product state of a unit spinor
    z = (z+, z0, z-), real or complex, with <G> = z^dag G z.

    ``z`` may carry trailing axes, shape (3, ...), giving the energy of every
    spinor of a grid.
    """
    jz, jx, y = _symbol_value(_ENERGY_GENERATORS, np.asarray(z))
    return -coeffs.q * n_atoms * jz * jz + coeffs.hz * jz + coeffs.hx * jx + coeffs.hY * y


def _energy_scale(coeffs, n_atoms):
    """The size of the per-atom energy's terms, at least 1: the largest of
    |q| N, |hx|, |hz| and |hY|."""
    return max(1.0, abs(coeffs.q) * n_atoms, abs(coeffs.hx), abs(coeffs.hz), abs(coeffs.hY))


def _overflow(what, coeffs, n_atoms):
    return ConvergenceError(f"the {what} float64; the Hamiltonian coefficients "
                            "are too large", context={"coeffs": coeffs, "N": n_atoms})


def _zeeman_matrix(coeffs):
    """L = hz Jz + hx Jx + hY Y, real."""
    return np.einsum("k,kij->ij", [coeffs.hz, coeffs.hx, coeffs.hY], _ENERGY_GENERATORS.real)


def _self_consistent_matrix(coeffs, n_atoms, z):
    """(A, gradient norm) at a unit spinor z: A = L - 2qN <Jz> Jz, and
    2 ||(I - z z^dag) A z||, the norm of the per-atom energy's gradient along
    the unit sphere; ConvergenceError naming the overflow where its square is
    past the largest float64."""
    jz = float((z.conj() @ _JZ @ z).real)
    a = _zeeman_matrix(coeffs) - 2.0 * coeffs.q * n_atoms * jz * _JZ
    g = a @ z
    g -= (z.conj() @ g) * z
    with np.errstate(over="ignore"):
        gn = 2.0 * float(np.linalg.norm(g))
    if not math.isfinite(gn):
        raise _overflow("mean-field gradient norm overflows", coeffs, n_atoms)
    return a, gn


@dataclass(frozen=True)
class MeanFieldResult:
    """The condensate mode and diagnostics of the search: z is the real unit
    spinor (beta+, s, beta-) with s >= 0."""

    z: np.ndarray
    energy_per_atom: float
    grad_norm: float
    degenerate: bool


def _crossings(matrices, slope):
    """The upward zero crossings of h(mu) = mu - <Jz>_0(mu) on [-1, 1].

    <Jz>_0 is the Jz expectation of the lowest eigenvector of A(mu) =
    matrices(mu), and dA/dmu = slope diag(-Jz).  |<Jz>_0| <= 1 gives h < 0
    below mu = -1 and h(1) >= 0, so a scan point with h >= 0 after one with
    h < 0 (or mu = -1 itself) brackets a crossing, counted once if h = 0
    there; ``crossing``'s Newton closes it from the end nearer the zero.
    """
    vecs = np.linalg.eigh(matrices(_SCAN))[1]
    h = _SCAN - vecs[:, 0, 0] ** 2 + vecs[:, 2, 0] ** 2
    up = np.flatnonzero((h >= 0.0) & ~np.concatenate(([False], h[:-1] >= 0.0)))
    lo = np.maximum(up - 1, 0)
    start = np.where(np.abs(h[lo]) < np.abs(h[up]), lo, up)
    return _refine_crossings(_SCAN[start], _SCAN[up] - _SCAN[lo], matrices, 1.0,
                             -np.diag(_JZ), slope)


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
    is real, so the amplitudes are real, with beta+ and beta- of the sign
    of -omega once the central amplitude s is taken >= 0.  The candidates are
    those of ``_crossings``.  Where lambda_0 is degenerate at a crossing
    (only at omega = 0, where h jumps) the minimizer is the mix of the pair
    with <Jz> = mu, and its relative phase is free.  A jump is closed only
    to _NEWTON_TOL, so a pair 4|qN| _NEWTON_TOL apart is degenerate too.

    Returns (z, energy, free_phase): the unit amplitudes (beta+, s, beta-)
    of every candidate within 1e-10 of the lowest per-atom energy, one per
    row with the lowest first; that energy; and whether the lowest has a
    free phase.  Coefficients too large for float64 leave A, its eigenvalues
    or the energies non-finite (LAPACK returns NaN eigenvalues from about
    1e308): ConvergenceError naming the overflow.
    """
    base = _zeeman_matrix(coeffs)
    slope = 2.0 * coeffs.q * n_atoms

    def matrices(mu):  # A(mu) at every mu of an array
        return base - (slope * mu)[:, None, None] * _JZ
    with np.errstate(over="ignore", invalid="ignore"):
        mu = _crossings(matrices, slope)
        w, vecs = np.linalg.eigh(matrices(mu))
        z = vecs[:, :, 0].copy()
        free_phase = w[:, 1] - w[:, 0] <= np.maximum(
            1e-12 * np.maximum(1.0, np.max(np.abs(w), axis=1)), 2.0 * abs(slope) * _NEWTON_TOL)
        for i in np.flatnonzero(free_phase):
            z[i] = _degenerate_mix(vecs[i, :, 0], vecs[i, :, 1], mu[i])
        z *= np.where(z[:, 1] < 0.0, -1.0, 1.0)[:, None]
        energies = classical_energy(z.T, coeffs, n_atoms)
    if not (len(mu) and np.isfinite(w).all() and np.isfinite(energies).all()):
        raise _overflow("mean-field matrix overflows", coeffs, n_atoms)
    order = np.argsort(energies, kind="stable")
    tied = order[energies[order] - energies[order[0]] <= 1e-10]
    return z[tied], float(energies[tied[0]]), bool(free_phase[tied[0]])


def hp_mean_field(coeffs, n_atoms):
    """The condensate mode: the global minimum of the classical energy.

    The minimum is that of ``_classical_minimum``.  A free phase, or
    distinct candidates tied in energy within 1e-10 (symmetry-broken pairs),
    mark the result degenerate.  ``grad_norm`` is the energy's gradient
    along the unit sphere, 2 ||(I - z z^T) A z||, which vanishes where z is
    an eigenvector of the self-consistent A.  Raises ConvergenceError unless
    it is <= GRAD_TOL_ACCEPT times the energy scale, or where it overflows
    float64.  Whether the minimum is a stable expansion point is for
    ``hp_quadratic`` to check.
    """
    z, energy, free_phase = _classical_minimum(coeffs, n_atoms)
    gn = _self_consistent_matrix(coeffs, n_atoms, z[0])[1]
    if gn > GRAD_TOL_ACCEPT * _energy_scale(coeffs, n_atoms):
        raise ConvergenceError(
            f"the self-consistent mean field is not a minimum: gradient norm {gn:.3e}",
            context={"coeffs": coeffs, "N": n_atoms},
        )
    return MeanFieldResult(
        z=z[0],
        energy_per_atom=energy,
        grad_norm=gn,
        degenerate=free_phase or len(z) > 1,
    )


@dataclass(frozen=True)
class GaussianSolution:
    """Condensate frame plus the Gaussian ground state of the side modes."""

    N: int
    frame: np.ndarray            # 3x3 real orthogonal, columns (z, e1, e2)
    covariance: np.ndarray       # 4x4 over the frame quadratures (X1, P1, X2, P2)
    frequencies: np.ndarray      # the two normal-mode frequencies, descending
    energy_per_atom: float


def hp_quadratic(coeffs, n_atoms, z):
    """The Bogoliubov expansion about a stationary point z, in its own frame.

    ``z`` is the spinor of the product state, as ``MeanFieldResult.z``: a
    finite real 3-vector with |z^T z - 1| <= 1e-12, or ConfigError.  It must
    be stationary within GRAD_TOL_EXPAND times the energy scale, so an
    eigenvector of the self-consistent A, whose eigenvectors then make the
    frame (z, e1, e2).  The point is a stable minimum when the gaps D and
    K = D - 4qN c c^T both exceed MODE_TOL times the energy scale; if not (a
    stationary point that is not the lowest, or a zero mode such as a free
    phase), UnstableExpansionError carries the offending frequency, a square
    root of an eigenvalue of D K.  The returned covariance has symplectic
    eigenvalues exactly 1/2 up to roundoff (pure Gaussian ground state).  D K
    has the units of a squared frequency: where it overflows float64,
    ConvergenceError.
    """
    z = np.asarray(z)
    if (np.iscomplexobj(z) or z.shape != (3,) or not np.isfinite(z).all()
            or abs(z @ z - 1.0) > 1e-12):
        raise ConfigError("the expansion point must be a finite real unit 3-vector")
    a, gn = _self_consistent_matrix(coeffs, n_atoms, z)
    scale = _energy_scale(coeffs, n_atoms)
    if gn > GRAD_TOL_EXPAND * scale:
        raise ConfigError(
            f"quadratic expansion requires a stationary point; gradient norm {gn:.3e}"
        )
    lam, frame = np.linalg.eigh(a)
    k = int(np.argmax(np.abs(frame.T @ z)))
    order = [k] + [i for i in range(3) if i != k]
    lam, frame = lam[order], frame[:, order]
    c = frame[:, 0] @ _JZ @ frame[:, 1:]
    with np.errstate(over="ignore", invalid="ignore"):
        d = lam[1:] - lam[0]
        kmat = np.diag(d) - 4.0 * coeffs.q * n_atoms * np.outer(c, c)
        dk = d[:, None] * kmat
    if not np.isfinite(dk).all():
        raise _overflow("squared mode frequencies overflow", coeffs, n_atoms)
    k_min = float(np.linalg.eigvalsh(kmat)[0])
    stable = min(d) > MODE_TOL * scale and k_min > MODE_TOL * scale
    if stable:
        root_d = np.sqrt(d)
        w_m, u_m = np.linalg.eigh(root_d[:, None] * kmat * root_d)
        stable = w_m[0] > 0.0  # M is congruent to K, so only roundoff fails here
    if not stable:
        squares = np.linalg.eigvals(dk)
        worst = np.sqrt(complex(squares[np.argmin(squares.real)]))
        raise UnstableExpansionError(
            f"the expansion point is not a stable minimum (gaps {d[0]:.3e}, {d[1]:.3e}; "
            f"least K eigenvalue {k_min:.3e}); offending normal mode {worst}",
            frequency=worst,
        )
    freqs = np.sqrt(w_m)  # ascending
    sigma = np.zeros((4, 4))
    sigma[0::2, 0::2] = 0.5 * root_d[:, None] * ((u_m / freqs) @ u_m.T) * root_d
    sigma[1::2, 1::2] = 0.5 * ((u_m * freqs) @ u_m.T) / root_d[:, None] / root_d
    return GaussianSolution(
        N=int(n_atoms),
        frame=frame,
        covariance=sigma,
        frequencies=freqs[::-1],
        energy_per_atom=float(classical_energy(z, coeffs, n_atoms)),
    )


def _frame_expansion(frame, n_atoms):
    """Each generator's symbol to second order in the frame quadratures:
    (value (8,), a (8, 4), F (8, 4, 4)) with G = value + a.R + R^T F R / 2.

    With G' = U^T G U in the frame U, the collective G is
    N G'00 + sqrt(N) 2 Re(G'0a b_a) + b^dag (G'_side - G'00 I) b, the last
    term counting the atoms the side modes take from the condensate.  So
    a = sqrt(2N) (Re G'0a, -Im G'0a), and F holds the real part of the
    side-mode block on the X and on the P block and minus its imaginary part
    on the X-P block.
    """
    g = frame.T @ _GENERATORS @ frame
    side = g[:, 1:, 1:] - g[:, :1, :1] * np.eye(2)
    lin = math.sqrt(2.0 * n_atoms) * g[:, 0, 1:]
    a = np.empty((8, 4))
    a[:, 0::2], a[:, 1::2] = lin.real, -lin.imag
    f = np.empty((8, 4, 4))
    f[:, 0::2, 0::2] = f[:, 1::2, 1::2] = side.real
    f[:, 0::2, 1::2], f[:, 1::2, 0::2] = -side.imag, side.imag
    return n_atoms * g[:, 0, 0].real, a, f


def gaussian_moment_set(solution):
    """Full eight-operator MomentSet of a Gaussian solution: means (8,) and
    symmetrized covariances (8, 8) of the eight generators.

    One rule expands every generator, ``_frame_expansion``'s, with the
    Weyl-ordering constant -tr(F)/4 folded into its value c.  Then
    <O> = c + tr(F sigma)/2 and
    Cov(O1, O2) = a1.sigma.a2 + tr(F1 sigma F2 sigma)/2 + tr(F1 W F2 W)/8
    with W the symplectic form (the last term is the Weyl-ordering
    correction; it vanishes for commuting quadratics).
    """
    value, a, f = _frame_expansion(solution.frame, solution.N)
    sigma = solution.covariance
    f_sigma = f @ sigma
    f_omega = f @ OMEGA
    means = value - np.trace(f, axis1=1, axis2=2) / 4.0 + 0.5 * np.trace(f_sigma, axis1=1, axis2=2)
    cov = (a @ sigma @ a.T
           + 0.5 * np.einsum("iab,jba->ij", f_sigma, f_sigma)
           + 0.125 * np.einsum("iab,jba->ij", f_omega, f_omega))
    return MomentSet(solution.N, means, 0.5 * (cov + cov.T))


def solve_gaussian(coeffs, n_atoms):
    """Convenience: mean field, quadratic expansion, Gaussian solution."""
    mf = hp_mean_field(coeffs, n_atoms)
    return hp_quadratic(coeffs, n_atoms, mf.z)

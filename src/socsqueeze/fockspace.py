"""Exact diagonalization of the collective-spin Hamiltonian.

Works in the fully symmetric N-boson subspace of three modes, dimension
(N+1)(N+2)/2, with basis states |n_plus, n_minus> ordered lexicographically
(n_zero = N - n_plus - n_minus is implied).  Collective operators are a
diagonal plus at most six mode hops, each of which moves one atom between two
modes; products with them are array shifts on the padded (N+1) x (N+1) grid
of occupations.  The Hamiltonian is real symmetric and its ground state comes
from one real Lanczos solve at every N, on numpy alone.
"""

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .algebra import GENERATOR_LABELS, generator_matrix
from .config import check_ed_atoms
from .errors import ConfigError, ConvergenceError
from .gaussian import _classical_minimum
from .metrics import MomentSet
from .params import EffectiveCoefficients

RESIDUAL_TOL = 1e-10
# the Lanczos recurrence stops once the Ritz estimate of the ground-state
# residual falls below RITZ_TOL * max(1, |E|); the true residual is gated by
# RESIDUAL_TOL after the eigenvector is assembled
RITZ_TOL = 1e-12
BREAKDOWN_TOL = 1e-8
MAX_LANCZOS_STEPS = 3000
CHECK_EVERY = 16


class FockBasis:
    """Index bookkeeping and collective operators for one atom number.

    Besides the lexicographic index, every state |n_plus, n_minus> has the
    padded position n_plus * (N+1) + n_minus on the (N+1) x (N+1) occupation
    grid; grid points with n_plus + n_minus > N are padding and stay zero.
    """

    def __init__(self, n_atoms):
        if n_atoms < 1:
            raise ConfigError(f"atom number must be >= 1, got {n_atoms}")
        self.N = int(n_atoms)
        n = self.N
        self.dim = (n + 1) * (n + 2) // 2
        n_plus = np.concatenate([np.full(n - a + 1, a) for a in range(n + 1)])
        n_minus = np.concatenate([np.arange(n - a + 1) for a in range(n + 1)])
        self.n_plus = n_plus
        self.n_minus = n_minus
        self.n_zero = n - n_plus - n_minus
        # block offset of each n_plus value in the lexicographic ordering
        self._offsets = np.concatenate([[0], np.cumsum(np.arange(n + 1, 0, -1))])
        self.padded_size = (n + 1) ** 2
        self.pad_index = n_plus * (n + 1) + n_minus

    def index(self, n_plus, n_minus):
        return self._offsets[n_plus] + n_minus

    def pad(self, x):
        """Place a vector (or the rows of a matrix) onto the padded grid."""
        out = np.zeros((self.padded_size,) + x.shape[1:], dtype=x.dtype)
        out[self.pad_index] = x
        return out

    def _hop(self, delta_p, delta_m, amplitude):
        """(shift, padded) of the mode-changing monomial with the given
        occupation shifts: on the padded grid it is the constant index shift
        ``shift``, and ``padded[i]`` is its amplitude out of position i."""
        ok = (
            (self.n_plus + delta_p >= 0)
            & (self.n_minus + delta_m >= 0)
            & (self.n_plus + delta_p + self.n_minus + delta_m <= self.N)
        )
        shift = delta_p * (self.N + 1) + delta_m
        padded = np.zeros(self.padded_size - shift)
        padded[self.pad_index[ok]] = amplitude(self.n_plus[ok], self.n_minus[ok], self.n_zero[ok])
        return shift, padded

    @cached_property
    def _hops(self):
        """(shift, padded, transposed) of each off-diagonal a_m^dag a_n, keyed
        by the (row, column) of G in mode order (+1, 0, -1)."""
        p0 = self._hop(1, 0, lambda p, m, z: np.sqrt((p + 1.0) * z))
        m0 = self._hop(0, 1, lambda p, m, z: np.sqrt((m + 1.0) * z))
        pm = self._hop(1, -1, lambda p, m, z: np.sqrt((p + 1.0) * m))
        return {(0, 1): (*p0, False), (1, 0): (*p0, True),
                (2, 1): (*m0, False), (1, 2): (*m0, True),
                (0, 2): (*pm, False), (2, 0): (*pm, True)}

    def collective(self, matrix3):
        """Second-quantized collective operator sum_mn G[m,n] a_m^dag a_n.

        The operator is real when G is, and complex otherwise.
        """
        matrix3 = np.asarray(matrix3) + 0.0
        if np.iscomplexobj(matrix3) and not np.any(matrix3.imag):
            matrix3 = matrix3.real
        numbers = (self.n_plus, self.n_zero, self.n_minus)
        diag = sum(matrix3[i, i] * numbers[i] for i in range(3))
        shifts = tuple((shift, matrix3[key] * padded, transposed)
                       for key, (shift, padded, transposed) in self._hops.items()
                       if matrix3[key] != 0.0)
        return FockOperator(self, diag, shifts)


class FockOperator:
    """Linear operator on the symmetric basis: a diagonal plus weighted hops.

    ``op @ x`` takes a vector, or a matrix with one vector per column, in
    lexicographic basis order.  ``shifts`` holds (shift, weight, transposed)
    triples on the padded grid: a hop adds weight[i] x[i] to y[i + shift],
    and a transposed one, moving the atom back, weight[i] x[i + shift] to y[i].
    """

    def __init__(self, basis, diag, shifts):
        self.basis = basis
        self.diag = diag
        self.shifts = shifts
        self.dtype = np.result_type(diag, *(weight for _, weight, _ in shifts))
        self._padded_diag = basis.pad(diag)

    def apply_padded(self, x, out=None):
        """Product with a vector (or matrix) laid out on the padded grid,
        written into ``out`` when given."""
        column = (-1,) + (1,) * (x.ndim - 1)
        y = np.multiply(self._padded_diag.reshape(column), x, out=out,
                        dtype=np.result_type(self.dtype, x.dtype))
        scratch = np.empty_like(y)
        for shift, weight, transposed in self.shifts:
            part = scratch[shift:]
            src, dst = (x[shift:], y[:-shift]) if transposed else (x[:-shift], y[shift:])
            dst += np.multiply(weight.reshape(column), src, out=part)
        return y

    def __matmul__(self, x):
        x = np.asarray(x)
        return self.apply_padded(self.basis.pad(x))[self.basis.pad_index]

    def toarray(self):
        """Dense matrix in lexicographic basis order, built from the padded
        weights that the products apply."""
        lex = np.zeros(self.basis.padded_size, dtype=int)
        lex[self.basis.pad_index] = np.arange(self.basis.dim)
        out = np.diag(self.diag).astype(self.dtype)
        for shift, weight, transposed in self.shifts:
            i = np.flatnonzero(weight)
            rows, cols = (i, i + shift) if transposed else (i + shift, i)
            out[lex[rows], lex[cols]] += weight[i]
        return out


@lru_cache(maxsize=8)
def fock_basis(n_atoms):
    """Shared FockBasis instance for an atom number (cached)."""
    return FockBasis(n_atoms)


@dataclass(frozen=True)
class SymmetricFockState:
    """Real ground-state amplitudes over the symmetric basis, with its energy,
    the eigenpair residual ||H psi - E psi|| and the Lanczos step count."""

    N: int
    amplitudes: np.ndarray
    energy: float
    residual: float
    iterations: int

    @property
    def basis(self):
        return fock_basis(self.N)


def build_effective_hamiltonian(coeffs, n_atoms):
    """Real collective Hamiltonian -q Fz^2 + hx Fx + hz Fz + hY FY.

    Fx is real and every other term is diagonal, so H is real symmetric.
    Coefficients so large that an entry overflows float64 raise
    ConvergenceError naming the overflow.
    """
    basis = fock_basis(n_atoms)
    fz_diag = (basis.n_plus - basis.n_minus).astype(float)
    fy_diag = (basis.n_plus + basis.n_minus - 2.0 * basis.n_zero) / np.sqrt(3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        diag = -coeffs.q * fz_diag**2 + coeffs.hz * fz_diag + coeffs.hY * fy_diag
        fx = basis.collective(coeffs.hx * generator_matrix("Jx"))
        diag += fx.diag
    if not all(np.isfinite(w).all() for w in (diag, *(w for _, w, _ in fx.shifts))):
        raise ConvergenceError("the Hamiltonian entries overflow float64; the Hamiltonian "
                               "coefficients are too large",
                               context={"coeffs": coeffs, "N": n_atoms})
    return FockOperator(basis, diag, fx.shifts)


def _recurrence(apply, v0):
    """Lanczos vectors v_j of a real symmetric operator with their alpha_j and
    beta_j (the norm of the next unnormalized vector), without end.  Each
    yielded v_j is overwritten by the step after it.

    Reductions go through einsum rather than BLAS: on these vector sizes a
    threaded BLAS-1 call can cost more in thread wake-ups than in arithmetic.
    """
    v, v_prev, w = v0.copy(), np.zeros_like(v0), np.empty_like(v0)
    beta = 0.0
    while True:
        apply(v, out=w)
        w -= beta * v_prev
        alpha = float(np.einsum("i,i->", w, v))
        w -= alpha * v
        beta = math.sqrt(float(np.einsum("i,i->", w, w)))
        yield v, alpha, beta
        v, v_prev = np.divide(w, beta, out=v_prev), v


def _lowest_eigenvalue(alphas, betas):
    """Lowest eigenvalue of the tridiagonal T with diagonal ``alphas`` and
    off-diagonal ``betas``, by bisection on Sturm counts.

    T - x has a non-positive LDL^T pivot exactly when x lies at or above the
    lowest eigenvalue, so bisection from a Gershgorin lower bound and
    min(alphas) closes on it until the bracket cannot be halved.  Pure Python
    on purpose: a LAPACK call here wakes BLAS threads that then spin through
    the rest of the recurrence, which roughly doubles the CPU time of a solve
    on two cores and slows it.
    """
    below, above = [0.0] + list(betas), list(betas) + [0.0]
    lo = min(a - b - c for a, b, c in zip(alphas, below, above))
    hi = min(alphas)
    squares = [b * b for b in below]
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        pivot = 1.0
        for a, b2 in zip(alphas, squares):
            pivot = a - mid - b2 / pivot
            if pivot <= 0.0:
                hi = mid
                break
        else:
            lo = mid


def _ritz_check(alphas, betas):
    """Lowest Ritz vector s of the Lanczos steps so far, its residual estimate
    beta_k |s_k| and the bound RITZ_TOL * max(1, |theta|) on that estimate.

    With one beta per step, T has diagonal ``alphas`` and off-diagonal
    ``betas[:-1]``; theta is its lowest eigenvalue.  The eigenvector is one
    inverse-iteration step on a twisted factorization of T - theta (as in
    Dhillon and Parlett's MRRR): pivots run down from the top and up from the
    bottom to the twist index r where the residual is least, and x_r = 1.
    Leading and trailing blocks of T - theta are positive definite, so each
    component is its neighbour times -beta / pivot with a positive pivot,
    free of cancellation even where components are tiny.
    """
    k = len(alphas)
    theta = _lowest_eigenvalue(alphas, betas[:-1])
    floor = sys.float_info.epsilon * max(1.0, abs(theta))
    shifted = [a - theta for a in alphas]
    top, bottom = shifted[:], shifted[:]
    for j in range(1, k):
        top[j] -= betas[j - 1] ** 2 / max(top[j - 1], floor)
    for j in range(k - 2, -1, -1):
        bottom[j] -= betas[j] ** 2 / max(bottom[j + 1], floor)
    r = min(range(k), key=lambda j: abs(top[j] + bottom[j] - shifted[j]))
    x = [0.0] * k
    x[r] = 1.0
    for j in range(r - 1, -1, -1):
        x[j] = -betas[j] / max(top[j], floor) * x[j + 1]
    for j in range(r + 1, k):
        x[j] = -betas[j - 1] / max(bottom[j], floor) * x[j - 1]
    x = np.array(x)
    # a near-double Ritz value (a ghost copy, see _lanczos_ground_state) can
    # overflow x; its vector and estimate are then NaN
    with np.errstate(over="ignore"):
        norm = math.sqrt(float((x * x).sum()))
    s = x / norm if math.isfinite(norm) else np.full(k, math.nan)
    return s, betas[-1] * abs(s[-1]), RITZ_TOL * max(1.0, abs(theta))


def _accepted(energy, residual):
    # written so that a NaN energy or residual (an overflowed Ritz vector) fails too
    return math.isfinite(energy) and residual <= RESIDUAL_TOL * max(1.0, abs(energy))


def _ritz_vector(apply, v0, s):
    """(energy, unit vector, residual) of sum_j s_j v_j, rerunning the recurrence."""
    psi = np.zeros_like(v0)
    for weight, (v, _, _) in zip(s, _recurrence(apply, v0)):
        psi += weight * v
    psi /= math.sqrt(float(np.einsum("i,i->", psi, psi)))
    h_psi = apply(psi)
    energy = float(np.einsum("i,i->", psi, h_psi))
    h_psi -= energy * psi
    return energy, psi, math.sqrt(float(np.einsum("i,i->", h_psi, h_psi)))


def _lanczos_ground_state(apply, v0):
    """Ground state of a real symmetric operator by Lanczos from unit v0.

    The recurrence runs until the Ritz estimate of the residual is small,
    then runs again from v0 to assemble the Ritz vector, so that no Krylov
    basis is stored.  Returns (energy, unit vector, residual, steps).

    The estimate is checked every CHECK_EVERY steps.  Once a Ritz value has
    converged, lost orthogonality soon makes ghost copies of it (Paige),
    whose pair is poor or overflows, so a pair that fails the residual test
    is replaced by the pair of the first step whose estimate passed, before
    any copy existed; if that fails too, ConvergenceError.  A recurrence that
    overflows float64 raises ConvergenceError naming the overflow.
    """
    alphas, betas, hnorm = [], [], 0.0
    for _, alpha, beta in _recurrence(apply, v0):
        alphas.append(alpha)
        betas.append(beta)
        steps = len(alphas)
        # beta is at most ||H||, so only an overflow makes it non-finite;
        # stop before the next step divides by it
        if not math.isfinite(beta):
            raise ConvergenceError("the Lanczos recurrence overflows float64; "
                                   "the Hamiltonian entries are too large",
                                   context={"steps": steps})
        hnorm = max(hnorm, abs(alpha) + beta + (betas[-2] if steps > 1 else 0.0))
        # a small beta means a nearly invariant Krylov space (beta = 0 at
        # omega_R = 0 or N = 1): check at once instead of dividing by it
        if (beta <= BREAKDOWN_TOL * hnorm or steps % CHECK_EVERY == 0
                or steps >= MAX_LANCZOS_STEPS):
            s, estimate, bound = _ritz_check(alphas, betas)
            # a NaN estimate is an overflowed pair: a ghost, so converged before
            if not estimate > bound:
                break
            if steps >= MAX_LANCZOS_STEPS:
                raise ConvergenceError(f"Lanczos did not converge in {steps} steps",
                                       context={"steps": steps})
    energy, psi, residual = _ritz_vector(apply, v0, s)
    if not _accepted(energy, residual):
        for steps in range(1, steps + 1):
            s, estimate, bound = _ritz_check(alphas[:steps], betas[:steps])
            if estimate <= bound:
                break
        energy, psi, residual = _ritz_vector(apply, v0, s)
        if not _accepted(energy, residual):
            raise ConvergenceError(
                f"eigenpair residual {residual:.3e} exceeds tolerance (energy {energy:.6g})",
                context={"residual": residual, "steps": steps})
    return energy, psi, residual, steps


def _start_vector(coeffs, h):
    """Unit Lanczos start on the padded grid (see ed_ground_state).

    The coherent state of unit z = (beta+, s, beta-) has the amplitudes
    sqrt(N! / (n+! n0! n-!)) beta+^n+ s^n0 beta-^n-, built in log space from
    one cumulative log-factorial table with n log|z| = 0 where n = 0.  Their
    squares sum to |z|^(2N) = 1, so no amplitude exceeds 1.
    """
    basis = h.basis
    if coeffs.hx == 0.0:
        v = (h.diag <= h.diag.min() + 1e-10 * basis.N) + 0.0
    else:
        z = _classical_minimum(coeffs, basis.N)[0][:, :, None]
        numbers = np.stack([basis.n_plus, basis.n_zero, basis.n_minus])
        log_factorial = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, basis.N + 1)))))
        log_norm = 0.5 * (log_factorial[basis.N] - log_factorial[numbers].sum(axis=0))
        with np.errstate(divide="ignore"):
            log_z = np.log(np.abs(z))
        powers = np.multiply(numbers, log_z, out=np.zeros(z.shape[:2] + numbers.shape[1:]),
                             where=numbers > 0)
        odd = (numbers * (z < 0.0)).sum(axis=1) % 2
        v = (np.where(odd, -1.0, 1.0) * np.exp(log_norm + powers.sum(axis=1))).sum(axis=0)
    return basis.pad(v / math.sqrt(float(np.einsum("i,i->", v, v))))


def ed_ground_state(coeffs, n_atoms):
    """Ground state of the collective Hamiltonian in the symmetric subspace.

    One real Lanczos solve at every N, from the coherent state of the
    classical minimum, of which the ground state is a small squeezed
    deformation; where minima tie within 1e-10 per atom (the rule that marks
    a mean field degenerate), from the normalized sum of their coherent
    states.  The start cannot miss: for omega_R != 0 every off-diagonal
    element of H is -|hx| times a positive number in the gauge (-sign hx)^n0
    and Fx connects the basis, so by Perron-Frobenius the ground state is
    nondegenerate with that sign pattern.  A minimum has s > 0 and beta+,
    beta- of the sign of -hx, so its coherent state has the same pattern and
    a strictly positive overlap with the ground state.  At omega_R = 0, H is
    diagonal and the start is the normalized sum of its Fock states within
    1e-10 per atom of the least energy, an exact eigenvector (for q < 0 a
    classical minimum on an edge of the simplex can miss them).

    The returned amplitude vector is real, in lexicographic basis order and
    sign-gauged: the first component of maximal magnitude is made positive,
    so degenerate or nearly degenerate ground spaces still resolve to a
    reproducible representative.
    """
    if not isinstance(coeffs, EffectiveCoefficients):
        raise ConfigError("coeffs must be EffectiveCoefficients")
    check_ed_atoms(n_atoms)
    basis = fock_basis(n_atoms)
    h = build_effective_hamiltonian(coeffs, n_atoms)
    try:
        # a recurrence that overflows is named by its non-finite beta, so
        # the overflow and the NaN after it are not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            energy, psi, residual, steps = _lanczos_ground_state(h.apply_padded,
                                                                 _start_vector(coeffs, h))
    except ConvergenceError as exc:
        exc.context.update(N=n_atoms, coeffs=coeffs)
        raise
    vec = psi[basis.pad_index]
    i0 = int(np.argmax(np.abs(vec)))
    vec = vec * np.sign(vec[i0])
    return SymmetricFockState(N=int(n_atoms), amplitudes=vec, energy=energy,
                              residual=residual, iterations=steps)


def ed_moment_set(state):
    """Full eight-operator MomentSet of an ED state: means (8,) and
    symmetrized covariances (8, 8) of the eight generators.

    Every entry comes from one real Gram matrix of psi and the nine
    a_m^dag a_n psi (rows in mode order (+1, 0, -1), as G ravels): the three
    number rows scale psi and the six hop rows shift it.  Each generator is a
    fixed combination of those nine.
    """
    basis = state.basis
    stack = np.zeros((10, basis.padded_size))
    stack[0] = psi = basis.pad(state.amplitudes)
    for i, number in enumerate((basis.n_plus, basis.n_zero, basis.n_minus)):
        stack[1 + 4 * i] = basis.pad(number * state.amplitudes)
    for (i, j), (shift, padded, transposed) in basis._hops.items():
        if transposed:
            np.multiply(padded, psi[shift:], out=stack[1 + 3 * i + j, :-shift])
        else:
            np.multiply(padded, psi[:-shift], out=stack[1 + 3 * i + j, shift:])
    gram = stack @ stack.T
    g = np.array([generator_matrix(lbl).ravel() for lbl in GENERATOR_LABELS])
    means = (g @ gram[0, 1:]).real
    second = (g.conj() @ gram[1:, 1:] @ g.T).real  # Hermitian ops: Re gives the symmetrized part
    return MomentSet(state.N, means, (second + second.T) / 2.0 - np.outer(means, means))

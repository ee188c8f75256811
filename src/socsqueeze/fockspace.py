"""Exact diagonalization of the collective-spin Hamiltonian.

Works in the fully symmetric N-boson subspace of three modes, dimension
(N+1)(N+2)/2, with basis states |n_plus, n_minus> ordered lexicographically
(n_zero = N - n_plus - n_minus is implied).  Collective operators are a
diagonal plus at most six mode hops, each of which moves one atom between two
modes; products with them are array shifts on the padded (N+1) x (N+1) grid
of occupations.  The Hamiltonian is real symmetric and its ground state comes
from one real Lanczos solve at every N, on numpy alone.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import GENERATOR_LABELS, generator_matrix
from .config import DEFAULT_N_CAP
from .errors import ConfigError, ConvergenceError
from .metrics import GENERATOR_SPECS, MomentSet, spec_moments
from .params import EffectiveCoefficients

RESIDUAL_TOL = 1e-10
# the Lanczos recurrence stops once the Ritz estimate of the ground-state
# residual falls below RITZ_TOL * max(1, |E|); the true residual is gated by
# RESIDUAL_TOL after the eigenvector is assembled
RITZ_TOL = 1e-12
BREAKDOWN_TOL = 1e-8
MAX_LANCZOS_STEPS = 3000
CHECK_EVERY = 16

MODES = (1, 0, -1)


class _Hop(NamedTuple):
    """One mode-changing monomial: amplitudes ``amp`` from basis states ``src``
    to ``dst`` (lexicographic indices), and the same amplitudes on the padded
    grid, where the hop is the constant index shift ``shift`` (``padded[i]``
    is the amplitude out of padded position i)."""

    dst: np.ndarray
    src: np.ndarray
    amp: np.ndarray
    shift: int
    padded: np.ndarray


class FockBasis:
    """Index bookkeeping and mode-transfer operators for one atom number.

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
        """The mode-changing monomial with the given occupation shifts."""
        ok = (
            (self.n_plus + delta_p >= 0)
            & (self.n_minus + delta_m >= 0)
            & (self.n_plus + delta_p + self.n_minus + delta_m <= self.N)
        )
        src = np.nonzero(ok)[0]
        dst = self.index(self.n_plus[src] + delta_p, self.n_minus[src] + delta_m)
        amp = amplitude(self.n_plus[src], self.n_minus[src], self.n_zero[src])
        shift = delta_p * (self.N + 1) + delta_m
        padded = np.zeros(self.padded_size - shift)
        padded[self.pad_index[src]] = amp
        return _Hop(dst, src, amp, shift, padded)

    @cached_property
    def _hops(self):
        """(hop, transposed) of each off-diagonal a_m^dag a_n, keyed by the
        (row, column) of G in mode order (+1, 0, -1)."""
        p0 = self._hop(1, 0, lambda p, m, z: np.sqrt((p + 1.0) * z))
        m0 = self._hop(0, 1, lambda p, m, z: np.sqrt((m + 1.0) * z))
        pm = self._hop(1, -1, lambda p, m, z: np.sqrt((p + 1.0) * m))
        return {(0, 1): (p0, False), (1, 0): (p0, True),
                (2, 1): (m0, False), (1, 2): (m0, True),
                (0, 2): (pm, False), (2, 0): (pm, True)}

    def transfer(self, m, n):
        """a_m^dag a_n over the symmetric subspace; m, n in {+1, 0, -1}."""
        if m not in MODES or n not in MODES:
            raise ConfigError(f"invalid mode pair {(m, n)!r}")
        return self._transfers[MODES.index(m)][MODES.index(n)]

    @cached_property
    def _transfers(self):
        units = np.eye(3)
        return [[self.collective(np.outer(ei, ej)) for ej in units] for ei in units]

    def collective(self, matrix3):
        """Second-quantized collective operator sum_mn G[m,n] a_m^dag a_n.

        The operator is real when G is, and complex otherwise.
        """
        matrix3 = np.asarray(matrix3) + 0.0
        if np.iscomplexobj(matrix3) and not np.any(matrix3.imag):
            matrix3 = matrix3.real
        numbers = (self.n_plus, self.n_zero, self.n_minus)
        diag = sum(matrix3[i, i] * numbers[i] for i in range(3))
        hops = tuple((matrix3[key], hop, transposed)
                     for key, (hop, transposed) in self._hops.items() if matrix3[key] != 0.0)
        return FockOperator(self, diag, hops)

    @cached_property
    def operators(self):
        """The eight collective generators F_a, in canonical label order."""
        return tuple(self.collective(generator_matrix(lbl)) for lbl in GENERATOR_LABELS)


class FockOperator:
    """Linear operator on the symmetric basis: a diagonal plus weighted hops.

    ``op @ x`` takes a vector, or a matrix with one vector per column, in
    lexicographic basis order.  ``hops`` holds (coefficient, hop, transposed)
    triples; a transposed hop moves the atom back.
    """

    def __init__(self, basis, diag, hops):
        self.basis = basis
        self.diag = diag
        self.hops = hops
        self.dtype = np.result_type(diag, *(c for c, _, _ in hops))
        self._padded_diag = basis.pad(diag)
        self._shifts = tuple((hop.shift, c * hop.padded, transposed)
                             for c, hop, transposed in hops)

    def apply_padded(self, x, out=None):
        """Product with a vector (or matrix) laid out on the padded grid,
        written into ``out`` when given."""
        column = (-1,) + (1,) * (x.ndim - 1)
        y = np.multiply(self._padded_diag.reshape(column), x, out=out,
                        dtype=np.result_type(self.dtype, x.dtype))
        scratch = np.empty_like(y)
        for shift, weight, transposed in self._shifts:
            part = scratch[shift:]
            src, dst = (x[shift:], y[:-shift]) if transposed else (x[:-shift], y[shift:])
            dst += np.multiply(weight.reshape(column), src, out=part)
        return y

    def __matmul__(self, x):
        x = np.asarray(x)
        return self.apply_padded(self.basis.pad(x))[self.basis.pad_index]

    def toarray(self):
        """Dense matrix in lexicographic basis order."""
        out = np.diag(self.diag).astype(self.dtype)
        for c, hop, transposed in self.hops:
            rows, cols = (hop.src, hop.dst) if transposed else (hop.dst, hop.src)
            out[rows, cols] += c * hop.amp
        return out


@lru_cache(maxsize=8)
def _basis(n_atoms):
    return FockBasis(n_atoms)


def fock_basis(n_atoms):
    """Shared FockBasis instance for an atom number (cached)."""
    return _basis(int(n_atoms))


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
    """
    basis = fock_basis(n_atoms)
    fz_diag = (basis.n_plus - basis.n_minus).astype(float)
    fy_diag = (basis.n_plus + basis.n_minus - 2.0 * basis.n_zero) / np.sqrt(3.0)
    diag = -coeffs.q * fz_diag**2 + coeffs.hz * fz_diag + coeffs.hY * fy_diag
    fx = basis.collective(coeffs.hx * generator_matrix("Jx"))
    return FockOperator(basis, fx.diag + diag, fx.hops)


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


def _lowest_ritz_pair(alphas, betas):
    """Lowest eigenvalue of the tridiagonal T with diagonal ``alphas`` and
    off-diagonal ``betas``, and its unit eigenvector.

    The eigenvector is one inverse-iteration step on a twisted factorization
    of T - theta (as in Dhillon and Parlett's MRRR): pivots run down from the
    top and up from the bottom to the twist index r where the residual is
    least, and x_r = 1.  Leading and trailing blocks of T - theta are positive
    definite, so each component is its neighbour times -beta / pivot with a
    positive pivot, free of cancellation even where components are tiny.
    """
    k = len(alphas)
    theta = _lowest_eigenvalue(alphas, betas)
    floor = np.finfo(float).eps * max(1.0, abs(theta))
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
    return theta, x / math.sqrt(float((x * x).sum()))


def _lanczos_ground_state(apply, v0):
    """Ground state of a real symmetric operator by Lanczos from unit v0.

    The recurrence runs until the Ritz estimate of the residual is small,
    then runs again from v0 to assemble the Ritz vector, so that no Krylov
    basis is stored.  Returns (energy, unit vector, residual, steps).
    """
    alphas, betas, hnorm = [], [], 0.0
    for _, alpha, beta in _recurrence(apply, v0):
        alphas.append(alpha)
        betas.append(beta)
        steps = len(alphas)
        hnorm = max(hnorm, abs(alpha) + beta + (betas[-2] if steps > 1 else 0.0))
        # a small beta means a nearly invariant Krylov space (beta = 0 at
        # omega_R = 0 or N = 1): check at once instead of dividing by it
        if (beta <= BREAKDOWN_TOL * hnorm or steps % CHECK_EVERY == 0
                or steps >= MAX_LANCZOS_STEPS):
            theta, s = _lowest_ritz_pair(alphas, betas[:-1])
            if beta * abs(s[-1]) <= RITZ_TOL * max(1.0, abs(theta)):
                break
            if steps >= MAX_LANCZOS_STEPS:
                raise ConvergenceError(f"Lanczos did not converge in {steps} steps",
                                       context={"steps": steps})
    psi = np.zeros_like(v0)
    for weight, (v, _, _) in zip(s, _recurrence(apply, v0)):
        psi += weight * v
    psi /= math.sqrt(float(np.einsum("i,i->", psi, psi)))
    h_psi = apply(psi)
    energy = float(np.einsum("i,i->", psi, h_psi))
    h_psi -= energy * psi
    return energy, psi, math.sqrt(float(np.einsum("i,i->", h_psi, h_psi))), steps


def ed_ground_state(coeffs, n_atoms, n_cap=DEFAULT_N_CAP):
    """Ground state of the collective Hamiltonian in the symmetric subspace.

    One real Lanczos solve from the uniform start vector, at every N.  The
    returned amplitude vector is real, in lexicographic basis order and
    sign-gauged: the first component of maximal magnitude is made positive,
    so degenerate or nearly degenerate ground spaces still resolve to a
    reproducible representative.
    """
    if not isinstance(coeffs, EffectiveCoefficients):
        raise ConfigError("coeffs must be EffectiveCoefficients")
    if n_atoms > n_cap:
        raise ConfigError(f"N={n_atoms} exceeds the configured cap {n_cap}")
    basis = fock_basis(n_atoms)
    h = build_effective_hamiltonian(coeffs, n_atoms)
    v0 = basis.pad(np.full(basis.dim, 1.0 / math.sqrt(basis.dim)))
    try:
        energy, psi, residual, steps = _lanczos_ground_state(h.apply_padded, v0)
    except ConvergenceError as exc:
        exc.context.update(N=n_atoms, coeffs=coeffs)
        raise
    # written so that a NaN energy or residual (an overflowed Ritz vector) fails too
    if not (math.isfinite(energy) and residual <= RESIDUAL_TOL * max(1.0, abs(energy))):
        raise ConvergenceError(
            f"eigenpair residual {residual:.3e} exceeds tolerance (energy {energy:.6g})",
            context={"N": n_atoms, "residual": residual, "steps": steps},
        )
    vec = psi[basis.pad_index]
    i0 = int(np.argmax(np.abs(vec)))
    vec = vec * np.sign(vec[i0])
    return SymmetricFockState(N=int(n_atoms), amplitudes=vec, energy=energy,
                              residual=residual, iterations=steps)


def _generator_moments(state):
    """Means (8,) and symmetrized covariances (8, 8) of the eight generators.

    Every entry comes from one real Gram matrix of psi and the nine
    a_m^dag a_n psi; each generator is a fixed combination of those nine.
    """
    basis = state.basis
    stack = np.empty((10, basis.padded_size))
    stack[0] = psi = basis.pad(state.amplitudes)
    for row, (m, n) in enumerate(itertools.product(MODES, MODES), start=1):
        basis.transfer(m, n).apply_padded(psi, out=stack[row])
    gram = stack @ stack.T
    g = np.array([generator_matrix(lbl).ravel() for lbl in GENERATOR_LABELS])
    means = (g @ gram[0, 1:]).real
    second = (g.conj() @ gram[1:, 1:] @ g.T).real  # Hermitian ops: Re gives the symmetrized part
    return means, (second + second.T) / 2.0 - np.outer(means, means)


def ed_moments(state, specs):
    """Means and symmetrized covariances of collective observables.

    ``specs`` is a list of CollectiveOperatorSpec or SpinOperator; returns
    (means, cov) with cov[i, j] = <{F_i,F_j}>/2 - <F_i><F_j>, projected from
    the generator moments by ``metrics.spec_moments``.
    """
    return spec_moments(*_generator_moments(state), specs)


def ed_moment_set(state):
    """Full eight-operator MomentSet of an ED state."""
    return MomentSet(state.N, *ed_moments(state, GENERATOR_SPECS))

"""Exact diagonalization of the collective-spin Hamiltonian.

Works in the fully symmetric N-boson subspace of three modes, dimension
(N+1)(N+2)/2, with basis states |n_plus, n_minus> ordered lexicographically
(n_zero = N - n_plus - n_minus is implied).  Collective operators are sparse;
the Hamiltonian is real symmetric and its ground state comes from one real
Lanczos solve at every N.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from .algebra import GENERATOR_LABELS, generator_matrix
from .errors import ConfigError, ConvergenceError
from .metrics import GENERATOR_SPECS, MomentSet, spec_moments
from .params import EffectiveCoefficients

DEFAULT_N_CAP = 300
RESIDUAL_TOL = 1e-10


class FockBasis:
    """Index bookkeeping and mode-transfer matrices for one atom number."""

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

    def index(self, n_plus, n_minus):
        return self._offsets[n_plus] + n_minus

    def _hop(self, delta_p, delta_m, amplitude):
        """Sparse matrix of a mode-changing monomial with given occupation shifts."""
        ok = (
            (self.n_plus + delta_p >= 0)
            & (self.n_minus + delta_m >= 0)
            & (self.n_plus + delta_p + self.n_minus + delta_m <= self.N)
        )
        src = np.nonzero(ok)[0]
        dst = self.index(self.n_plus[src] + delta_p, self.n_minus[src] + delta_m)
        data = amplitude(self.n_plus[src], self.n_minus[src], self.n_zero[src])
        return sp.csr_matrix((data, (dst, src)), shape=(self.dim, self.dim))

    def transfer(self, m, n):
        """a_m^dag a_n over the symmetric subspace; m, n in {+1, 0, -1}."""
        key = (m, n)
        if key not in self._transfer_cache:
            raise ConfigError(f"invalid mode pair {key!r}")
        return self._transfer_cache[key]

    @cached_property
    def _transfer_cache(self):
        d = {}
        d[(1, 1)] = sp.diags(self.n_plus.astype(float))
        d[(0, 0)] = sp.diags(self.n_zero.astype(float))
        d[(-1, -1)] = sp.diags(self.n_minus.astype(float))
        d[(1, 0)] = self._hop(1, 0, lambda p, m, z: np.sqrt((p + 1.0) * z))
        d[(-1, 0)] = self._hop(0, 1, lambda p, m, z: np.sqrt((m + 1.0) * z))
        d[(1, -1)] = self._hop(1, -1, lambda p, m, z: np.sqrt((p + 1.0) * m))
        d[(0, 1)] = d[(1, 0)].T.tocsr()
        d[(0, -1)] = d[(-1, 0)].T.tocsr()
        d[(-1, 1)] = d[(1, -1)].T.tocsr()
        return d

    def collective(self, matrix3):
        """Second-quantized collective operator sum_mn G[m,n] a_m^dag a_n (sparse).

        The operator is real when G is, and complex otherwise.
        """
        matrix3 = np.asarray(matrix3)
        if np.iscomplexobj(matrix3) and not np.any(matrix3.imag):
            matrix3 = matrix3.real
        modes = (1, 0, -1)
        op = sp.csr_matrix((self.dim, self.dim), dtype=matrix3.dtype)
        for i, m in enumerate(modes):
            for j, n in enumerate(modes):
                g = matrix3[i, j]
                if g != 0.0:
                    op = op + g * self.transfer(m, n)
        return op

    @cached_property
    def operators(self):
        """The eight collective generators F_a, in canonical label order."""
        return tuple(self.collective(generator_matrix(lbl)) for lbl in GENERATOR_LABELS)


@lru_cache(maxsize=8)
def _basis(n_atoms):
    return FockBasis(n_atoms)


def fock_basis(n_atoms):
    """Shared FockBasis instance for an atom number (cached)."""
    return _basis(int(n_atoms))


@dataclass(frozen=True)
class SymmetricFockState:
    """Real ground-state amplitudes over the symmetric basis, with its energy
    and the eigenpair residual ||H psi - E psi||."""

    N: int
    amplitudes: np.ndarray
    energy: float
    residual: float

    @property
    def basis(self):
        return fock_basis(self.N)


def build_effective_hamiltonian(coeffs, n_atoms):
    """Real sparse collective Hamiltonian -q Fz^2 + hx Fx + hz Fz + hY FY.

    Fx is real and every other term is diagonal, so H is real symmetric.
    """
    basis = fock_basis(n_atoms)
    fz_diag = (basis.n_plus - basis.n_minus).astype(float)
    fy_diag = (basis.n_plus + basis.n_minus - 2.0 * basis.n_zero) / np.sqrt(3.0)
    diag = -coeffs.q * fz_diag**2 + coeffs.hz * fz_diag + coeffs.hY * fy_diag
    fx = basis.operators[GENERATOR_LABELS.index("Jx")]
    return (coeffs.hx * fx + sp.diags(diag)).tocsr()


def ed_ground_state(coeffs, n_atoms, n_cap=DEFAULT_N_CAP):
    """Ground state of the collective Hamiltonian in the symmetric subspace.

    One real Lanczos solve with a fixed deterministic start vector, at every
    N.  The returned amplitude vector is real and sign-gauged: the first
    component of maximal magnitude is made positive, so degenerate or nearly
    degenerate ground spaces still resolve to a reproducible representative.
    """
    if not isinstance(coeffs, EffectiveCoefficients):
        raise ConfigError("coeffs must be EffectiveCoefficients")
    if n_atoms > n_cap:
        raise ConfigError(f"N={n_atoms} exceeds the configured cap {n_cap}")
    basis = fock_basis(n_atoms)
    h = build_effective_hamiltonian(coeffs, n_atoms)
    v0 = np.full(basis.dim, 1.0 / np.sqrt(basis.dim))
    try:
        w, v = eigsh(h, k=1, which="SA", v0=v0, maxiter=50 * basis.dim)
    except Exception as exc:
        raise ConvergenceError(
            f"Lanczos failed for N={n_atoms}", context={"N": n_atoms, "coeffs": coeffs}
        ) from exc
    energy, vec = float(w[0]), v[:, 0]
    residual = float(np.linalg.norm(h @ vec - energy * vec))
    if residual > RESIDUAL_TOL * max(1.0, abs(energy)):
        raise ConvergenceError(
            f"eigenpair residual {residual:.3e} exceeds tolerance",
            context={"N": n_atoms, "residual": residual},
        )
    vec = vec / np.linalg.norm(vec)
    i0 = int(np.argmax(np.abs(vec)))
    vec = vec * np.sign(vec[i0])
    return SymmetricFockState(N=int(n_atoms), amplitudes=vec, energy=energy, residual=residual)


def _generator_moments(state):
    """Means (8,) and symmetrized covariances (8, 8) of the eight generators.

    Every entry comes from one Gram matrix of psi and the F_a psi of the
    basis's cached operators.
    """
    psi = state.amplitudes
    stack = np.array([psi] + [op @ psi for op in state.basis.operators])
    gram = (stack.conj() @ stack.T).real  # Hermitian ops: Re gives the symmetrized part
    means = gram[0, 1:]
    second = gram[1:, 1:]
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

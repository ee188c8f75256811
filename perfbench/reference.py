"""Reference computations that check socsqueeze outputs, written apart from the package.

Nothing here imports socsqueeze.  Every formula follows the model as the
package README states it: energies in recoil units, component order
(+1, 0, -1), the dressed-band Hamiltonian
diag((k+2)^2 - delta, k^2 - epsilon, (k-2)^2 + delta) with omega_R/2 on the
off-diagonals, and the collective Hamiltonian -q Fz^2 + hx Fx + hz Fz + hY FY
with q = 8/N, hx = omega_R/sqrt(2), hz = -delta, hY = (4 + epsilon)/sqrt(3).
"""

import math

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
LABELS = ("Jx", "Jy", "Jz", "Qxy", "Qyz", "Qzx", "D", "Y")

# largest Fock dimension solved densely; N = 62 has dimension 2016
DENSE_LIMIT = 2100


# --- spin-1 operators -------------------------------------------------------

def spin1_matrices():
    """The eight traceless Hermitian 3x3 operators, keyed by label.

    Built from the spin-1 angular momentum: the quadrupoles are the
    anticommutators {Ja, Jb}, D = Jx^2 - Jy^2 and Y = (3 Jz^2 - 2)/sqrt(3),
    which gives tr(Ga Gb) = 2 delta_ab.
    """
    jx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQRT2
    jy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / SQRT2
    jz = np.diag([1.0, 0.0, -1.0]).astype(complex)

    def anti(a, b):
        return a @ b + b @ a

    return {
        "Jx": jx, "Jy": jy, "Jz": jz,
        "Qxy": anti(jx, jy), "Qyz": anti(jy, jz), "Qzx": anti(jz, jx),
        "D": jx @ jx - jy @ jy,
        "Y": (3.0 * jz @ jz - 2.0 * np.eye(3)) / SQRT3,
    }


# --- dressed bands ----------------------------------------------------------

def band_matrices(k, omega_R, delta, epsilon):
    """Real symmetric 3x3 band Hamiltonians at the momenta k, shape (..., 3, 3)."""
    k = np.asarray(k, dtype=float)
    h = np.zeros(k.shape + (3, 3))
    h[..., 0, 0] = (k + 2.0) ** 2 - delta
    h[..., 1, 1] = k * k - epsilon
    h[..., 2, 2] = (k - 2.0) ** 2 + delta
    h[..., 0, 1] = h[..., 1, 0] = h[..., 1, 2] = h[..., 2, 1] = 0.5 * omega_R
    return h


def lowest_branch(k, omega_R, delta, epsilon):
    return np.linalg.eigvalsh(band_matrices(k, omega_R, delta, epsilon))[..., 0]


def band_minima(omega_R, delta, epsilon, window=(-4.0, 4.0), n_points=2001):
    """Interior local minima of the lowest branch as (E, k) pairs, lowest first.

    Grid minima are polished by a bounded scalar minimization within one
    grid step on either side.
    """
    k = np.linspace(window[0], window[1], n_points)
    e = lowest_branch(k, omega_R, delta, epsilon)
    dk = k[1] - k[0]
    interior = np.nonzero((e[1:-1] <= e[:-2]) & (e[1:-1] <= e[2:]))[0] + 1
    found = []
    for j in interior:
        res = scipy.optimize.minimize_scalar(
            lambda x: float(lowest_branch(x, omega_R, delta, epsilon)),
            bounds=(k[j] - dk, k[j] + dk), method="bounded",
            options={"xatol": 1e-12},
        )
        found.append((float(res.fun), float(res.x)))
    return sorted(found)


# --- collective Hamiltonian in the symmetric Fock basis ---------------------

def effective_coefficients(omega_R, delta, epsilon, n_atoms):
    """(q, hx, hz, hY) of the collective Hamiltonian."""
    return (8.0 / n_atoms, omega_R / SQRT2, -delta, (4.0 + epsilon) / SQRT3)


class FockReference:
    """Second-quantized operators over the symmetric states of N spin-1 atoms.

    States are occupation triples (n_+1, n_0, n_-1) summing to N; the order of
    the basis is this class's own and is never compared with the package's.
    """

    def __init__(self, n_atoms):
        self.N = int(n_atoms)
        n = self.N
        occ = [(p, n - p - m, m) for p in range(n + 1) for m in range(n + 1 - p)]
        self.occ = np.array(occ, dtype=np.int64)
        self.dim = len(occ)
        self._lookup = np.full((n + 1, n + 1), -1, dtype=np.int64)
        self._lookup[self.occ[:, 0], self.occ[:, 2]] = np.arange(self.dim)

    def hop(self, i, j):
        """a_i^dag a_j for mode indices i, j in 0..2 (order +1, 0, -1)."""
        if i == j:
            return sp.diags(self.occ[:, i].astype(float))
        src = np.nonzero(self.occ[:, j] > 0)[0]
        new = self.occ[src].copy()
        new[:, j] -= 1
        new[:, i] += 1
        dst = self._lookup[new[:, 0], new[:, 2]]
        amp = np.sqrt(self.occ[src, j] * (self.occ[src, i] + 1.0))
        return sp.csr_matrix((amp, (dst, src)), shape=(self.dim, self.dim))

    def collective(self, g):
        """sum_ij g[i, j] a_i^dag a_j as a sparse matrix (complex unless g is real)."""
        g = np.asarray(g)
        real = np.allclose(g.imag, 0.0)
        op = sp.csr_matrix((self.dim, self.dim), dtype=float if real else complex)
        for i in range(3):
            for j in range(3):
                if g[i, j] != 0:
                    op = op + (g[i, j].real if real else g[i, j]) * self.hop(i, j)
        return op.tocsr()

    def hamiltonian(self, omega_R, delta, epsilon):
        q, hx, hz, hy = effective_coefficients(omega_R, delta, epsilon, self.N)
        g = spin1_matrices()
        fz = self.collective(g["Jz"])
        return (-q * (fz @ fz) + hx * self.collective(g["Jx"]) + hz * fz
                + hy * self.collective(g["Y"])).tocsr()

    def ground_state(self, omega_R, delta, epsilon):
        """(energy, real unit vector, residual norm) of the lowest eigenpair.

        Dense LAPACK solve up to DENSE_LIMIT, Lanczos above it; the residual
        ||H v - E v|| is returned either way so callers can bound it.
        """
        h = self.hamiltonian(omega_R, delta, epsilon)
        if self.dim <= DENSE_LIMIT:
            w, v = scipy.linalg.eigh(h.toarray(), subset_by_index=[0, 0])
        else:
            v0 = np.cos(np.arange(self.dim))  # deterministic, not the package's start vector
            w, v = eigsh(h, k=1, which="SA", v0=v0, tol=0.0)
        energy, vec = float(w[0]), v[:, 0] / np.linalg.norm(v[:, 0])
        residual = float(np.linalg.norm(h @ vec - energy * vec))
        return energy, vec, residual

    def moments(self, vec):
        """Means (8,) and symmetrized covariances (8, 8) of the collective operators."""
        g = spin1_matrices()
        applied = [self.collective(g[lbl]) @ vec for lbl in LABELS]
        means = np.array([np.vdot(vec, w).real for w in applied])
        second = np.array([[np.vdot(a, b).real for b in applied] for a in applied])
        return means, second - np.outer(means, means)


# --- squeezing metrics from moments -----------------------------------------

def angle_minimum(n_atoms, means, cov):
    """Closed-form minimum of the quadrature-pair witnesses over the angle.

    The numerator of xi_dcz and xi_uv at angle theta is (cos, sin) M (cos, sin)^T
    with M = [[V(Jx)+V(Jy), C(Jx,Qyz)-C(Qzx,Jy)], [., V(Qyz)+V(Qzx)]], so its
    minimum is the smallest eigenvalue of M and theta* is the angle of that
    eigenvector, folded into [0, pi).  Returns a dict with lambda_min, the gap
    to the other eigenvalue, theta, xi_dcz_min, xi_uv_min and xi_x.
    """
    ix = {lbl: i for i, lbl in enumerate(LABELS)}

    def c(a, b):
        return cov[ix[a], ix[b]]

    off = c("Jx", "Qyz") - c("Qzx", "Jy")
    m = np.array([[c("Jx", "Jx") + c("Jy", "Jy"), off],
                  [off, c("Qyz", "Qyz") + c("Qzx", "Qzx")]])
    w, v = np.linalg.eigh(m)
    theta = math.atan2(v[1, 0], v[0, 0]) % math.pi
    if math.pi - theta < 1e-7:
        theta = 0.0
    mean_y = abs(means[ix["Y"]])
    return {
        "lambda_min": float(w[0]),
        "gap": float(w[1] - w[0]),
        "theta": theta,
        "xi_dcz_min": float(w[0]) / (2.0 * n_atoms),
        "xi_uv_min": float(w[0]) / (SQRT3 * mean_y) if mean_y > 0 else math.inf,
        "xi_x": float(c("Jx", "Jx")) / n_atoms,
    }


def robertson_gap(means, cov):
    """Var(Jx) Var(Qyz) - <sqrt(3) Y + D>^2 / 4, and the scale of its terms.

    [Jx, Qyz] = i (sqrt(3) Y + D), so the first value is >= 0 for any state.
    """
    ix = {lbl: i for i, lbl in enumerate(LABELS)}
    lhs = cov[ix["Jx"], ix["Jx"]] * cov[ix["Qyz"], ix["Qyz"]]
    rhs = 0.25 * (SQRT3 * means[ix["Y"]] + means[ix["D"]]) ** 2
    return float(lhs - rhs), float(max(abs(lhs), abs(rhs), 1.0))


def populations(n_atoms, means):
    """(rho_m1, rho_0, rho_p1) from <Jz> and <Y>: sqrt(3) Y = N - 3 n_0."""
    ix = {lbl: i for i, lbl in enumerate(LABELS)}
    n0 = (n_atoms - SQRT3 * means[ix["Y"]]) / 3.0
    rest = n_atoms - n0
    mz = means[ix["Jz"]]
    return (rest - mz) / (2.0 * n_atoms), n0 / n_atoms, (rest + mz) / (2.0 * n_atoms)


def hartree_moments(psi, dv, n_atoms):
    """Product-state moments N<g>, N(<{g,h}/2> - <g><h>) of a normalized spinor field."""
    flat = psi.reshape(3, -1)
    rho = (flat @ flat.conj().T) * dv
    g = spin1_matrices()
    mats = [g[lbl] for lbl in LABELS]
    first = np.array([np.trace(a @ rho).real for a in mats])
    second = np.array([[np.trace(0.5 * (a @ b + b @ a) @ rho).real for b in mats]
                       for a in mats])
    return n_atoms * first, n_atoms * (second - np.outer(first, first))


# --- trapped spinor mean field ----------------------------------------------

HBAR = 1.054571817e-34           # J s (CODATA 2018)
ATOMIC_MASS = 1.66053906660e-27  # kg (CODATA 2018)
RB87_MASS = 86.909180531 * ATOMIC_MASS
BOHR = 5.29177210903e-11         # m


def mean_field_couplings(a_s0, a_s2, n_atoms, trap_hz, recoil_hz, dimension):
    """(c0, c2) in solver units for scattering lengths in Bohr radii.

    The recoil momentum solves hbar^2 k^2 / 2m = h f_recoil; each axis beyond
    ``dimension`` is integrated out with the Gaussian overlap sqrt(w / 4 pi).
    """
    k_recoil = math.sqrt(4.0 * math.pi * RB87_MASS * recoil_hz / HBAR)
    a0 = a_s0 * BOHR * k_recoil
    a2 = a_s2 * BOHR * k_recoil
    c0 = 8.0 * math.pi / 3.0 * n_atoms * (a0 + 2.0 * a2)
    c2 = 8.0 * math.pi / 3.0 * n_atoms * (a2 - a0)
    for f in trap_hz[dimension:]:
        factor = math.sqrt((f / recoil_hz) / (4.0 * math.pi))
        c0 *= factor
        c2 *= factor
    return c0, c2


def gp_energy(psi, x, omega_R, delta, epsilon, trap_ratio, c0, c2):
    """Energy per atom of a 1-D spinor field on a periodic grid.

    Spectral kinetic term with the band Hamiltonian at every grid momentum,
    the trap (w x)^2 / 4, the density term c0 n^2 / 2 and the spin term
    c2 |F|^2 / 2 with F_a = psi^dag J_a psi.
    """
    n = len(x)
    dx = float(x[1] - x[0])
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    psik = np.fft.fft(psi, axis=1)
    h = band_matrices(k, omega_R, delta, epsilon)
    kinetic = np.einsum("ik,kij,jk->", psik.conj(), h, psik).real * dx / n
    dens = np.sum(np.abs(psi) ** 2, axis=0)
    g = spin1_matrices()
    spin = np.array([np.einsum("ik,ij,jk->k", psi.conj(), g[a], psi).real
                     for a in ("Jx", "Jy", "Jz")])
    return float(kinetic
                 + np.sum(0.25 * trap_ratio**2 * x**2 * dens) * dx
                 + 0.5 * c0 * np.sum(dens**2) * dx
                 + 0.5 * c2 * np.sum(spin**2) * dx)


def oscillator_energy(trap_ratio, epsilon):
    """Ground energy of the undriven 0 component in the trap: w/2 - epsilon."""
    return 0.5 * trap_ratio - epsilon

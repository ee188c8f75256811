"""Spinor Gross-Pitaevskii ground states by preconditioned energy minimization.

The ground state minimizes the discrete mean-field energy over normalized
fields.  ``imaginary_time_ground_state`` (named for the relaxation it
replaces) runs a preconditioned Riemannian conjugate gradient on the unit
sphere and stops on the eigen-residual ||H psi - mu psi||; every iteration
lowers the energy.  It starts from the layer below: the lowest dressed-band
state of the grid, which the preconditioner's eigendecomposition already holds
(``GpProblem.initial_field``).

Dimensionless convention: lengths in inverse recoil momenta, energies in
recoil energies, so the single-particle part at quasimomentum k along the
coupled axis is the same 3x3 matrix the band module diagonalizes, and a trap
of ordinary frequency f contributes (f / recoil_frequency)^2 x^2 / 4 per
axis.  The wavefunction is normalized to one; atom number enters only
through the interaction couplings and the moment scaling.

The coupled axis is always axis 0.  Boundaries are periodic (the kinetic
term is spectral); traps must decay the state well inside the box, which
``check_gp_setup`` enforces.

Quasi-1D/2D: interactions are reduced by the Gaussian ground-state overlap
of each transverse axis, sqrt(w_t / 4 pi) per axis with w_t the transverse
frequency ratio; the reduction requires a trap (``check_gp_setup``).

The setup rules (``check_gp_setup``, ``check_solver_settings``) and the
solver defaults ``SOLVER_DEFAULTS`` belong to ``socsqueeze.config``; the
Hartree moments of a field (``gp_moment_set``) are one full ``MomentSet``.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .algebra import SQRT2, generator_stack
from .bands import build_hamiltonian
from .config import SOLVER_DEFAULTS, check_gp_setup, check_solver_settings
from .errors import ConfigError, ConvergenceError
from .metrics import MomentSet

HBAR = 1.054571817e-34          # J s
RB87_MASS = 1.44316060e-25      # kg
BOHR_RADIUS = 5.29177210903e-11  # m

# shift alpha of the kinetic preconditioner (h1(k) - min h1 + alpha)^-1, in recoil
# energies, scanned from the band seed (initial_field) on the shipped (tol 1e-7),
# detuned criterion-11 (tol 2e-5) and trapped-oscillator cases: they took 48/31/9
# iterations at 0.05, 35/22/8 at 0.1, 26/16/9 at 0.2 and 22/11/9 at 0.5, and over
# seeds 0-7 of the detuned case the medians were 30, 22, 16 and 11.  At 0.5 the
# shipped and oscillator runs stop at energies higher than at 0.2, by 2.5e-9 and 6e-11
PRECONDITIONER_SHIFT = 0.2
ARMIJO = 1e-4          # fraction of the slope a trial angle must gain
MAX_BACKTRACKS = 40    # halvings of the trial angle before the line search gives up
ROUNDOFF = 1e-14       # relative energy change taken as rounding in the Armijo test


def raman_recoil_momentum(recoil_frequency):
    """Recoil momentum (1/m) for a recoil frequency in Hz (Rb-87 mass)."""
    return math.sqrt(4.0 * math.pi * RB87_MASS * recoil_frequency / HBAR)


def mean_field_couplings(interaction, trap, dimension):
    """Density and spin coupling constants in solver units.

    The 3-D couplings are (8 pi / 3) N (a0 + 2 a2) and (8 pi / 3) N (a2 - a0)
    with scattering lengths in recoil units; below three dimensions each
    integrated-out transverse axis multiplies them by its Gaussian overlap.
    ``trap`` may be None only without an interaction (``check_gp_setup``).
    """
    if interaction is None:
        return 0.0, 0.0
    kr = raman_recoil_momentum(trap.recoil_frequency)
    a0 = interaction.a_s0 * BOHR_RADIUS * kr
    a2 = interaction.a_s2 * BOHR_RADIUS * kr
    c0 = (8.0 * math.pi / 3.0) * interaction.N * (a0 + 2.0 * a2)
    c2 = (8.0 * math.pi / 3.0) * interaction.N * (a2 - a0)
    for axis in range(dimension, 3):
        factor = math.sqrt(trap.frequency_ratio(axis) / (4.0 * math.pi))
        c0 *= factor
        c2 *= factor
    return float(c0), float(c2)


@dataclass
class SpinorField:
    """Three complex component fields on the grid, normalized to one."""

    psi: np.ndarray       # shape (3, *spatial)
    axes: tuple
    dv: float

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.psi) ** 2) * self.dv))

    def normalized(self):
        return SpinorField(self.psi / self.norm(), self.axes, self.dv)

    def density_matrix(self):
        """One-body 3x3 spin density matrix (Hermitian, unit trace)."""
        flat = self.psi.reshape(3, -1)
        return (flat @ flat.conj().T) * self.dv

    def check_norm(self):
        n = self.norm()
        if abs(n - 1.0) > 1e-10:
            raise ConfigError(f"field norm {n} is not 1 within 1e-10")
        return self


def field_populations(field):
    """Component fractions (rho_m1, rho_0, rho_p1) of a spinor field."""
    rho = np.diag(field.density_matrix()).real
    return float(rho[2]), float(rho[1]), float(rho[0])


class GpProblem:
    """Discretized problem: grids, trap potential, couplings, spectral kinetics,
    and the lowest single-particle state of the grid, which the seed starts from."""

    def __init__(self, params, trap, interaction, grid):
        check_gp_setup(trap, interaction, grid)
        self.trap = trap
        self.grid = grid
        d = grid.dimension
        self.c0, self.c2 = mean_field_couplings(interaction, trap, d)
        self.axes = grid.axes()
        self.dv = grid.dv
        self.shape = grid.n_points
        self.size = int(np.prod(self.shape))

        k_axes = [2.0 * math.pi * np.fft.fftfreq(n, d=2.0 * l / n)
                  for n, l in zip(grid.n_points, grid.extent)]
        mesh = np.meshgrid(*k_axes, indexing="ij")
        k_soc = mesh[0].reshape(-1)
        k_perp_sq = sum(m.reshape(-1) ** 2 for m in mesh[1:]) if d > 1 else 0.0

        # the band Hamiltonian along the coupled axis, plus the free transverse kinetics.
        # Cast to complex once: the kinetic einsum of a real (n, 3, 3) array with the
        # complex field runs about three times slower than with a complex array.
        self.h1 = (build_hamiltonian(k_soc, params).astype(complex)
                   + np.multiply.outer(k_perp_sq, np.eye(3)))
        w, u = np.linalg.eigh(self.h1)
        self.preconditioner = np.einsum("kij,kj,klj->kil", u,
                                        1.0 / (w - w.min() + PRECONDITIONER_SHIFT), u.conj())
        # the seed: the lowest eigenpair over the grid's momenta.  A transverse k^2 only
        # raises a row, so the argmin has k_perp = 0
        lowest = int(np.argmin(w[:, 0]))
        self.seed_k, self.seed_spinor = float(k_soc[lowest]), u[lowest, :, 0]

        if trap is not None:
            pos = np.meshgrid(*self.axes, indexing="ij")
            v = np.zeros(self.shape)
            for axis in range(d):
                w = trap.frequency_ratio(axis)
                v = v + 0.25 * w * w * pos[axis] ** 2
            self.v_trap = v.reshape(-1)
        else:
            self.v_trap = np.zeros(self.size)

    def initial_field(self, seed=0):
        """Seed of the minimizer, from the lowest dressed band, with small
        reproducible noise.

        The seed is the spinor v0 (``seed_spinor``) of the lowest
        single-particle eigenpair over the grid's momenta, at momentum k0
        (``seed_k``), plus a seeded complex jitter, times an envelope, times
        the plane wave e^{i k0 x} along the coupled axis; a ground state near
        that plane wave then needs no iterations to build its phase winding.
        A grid too coarse to carry the band's continuum minimum seeds at its
        own lowest momentum, the minimum of the discretized problem.  The
        envelope is a Gaussian of the trap oscillator length (a quarter of
        the extent without a trap), except along the coupled axis where a
        repulsive c0 puts r_TF / 2 above that length, r_TF = (3 c0 / w^2)^(1/3):
        there it is the Thomas-Fermi profile of radius r_TF.  A touch of white
        noise populates every grid momentum, so no ground state is missed by
        symmetry.
        """
        rng = np.random.default_rng(seed)
        pos = np.meshgrid(*self.axes, indexing="ij")
        envelope = np.ones(self.shape)
        for axis in range(self.grid.dimension):
            if self.trap is None:
                sigma = self.grid.extent[axis] / 4.0
            else:
                sigma = self.trap.oscillator_length(axis)
                if self.c0 > 0.0 and axis == 0:
                    w = self.trap.frequency_ratio(axis)
                    r_tf = (3.0 * self.c0 / (w * w)) ** (1.0 / 3.0)
                    if 0.5 * r_tf > sigma:
                        envelope = envelope * np.sqrt(np.maximum(1.0 - (pos[0] / r_tf) ** 2, 0.0))
                        continue
            envelope = envelope * np.exp(-(pos[axis] ** 2) / (2.0 * sigma**2))
        weights = self.seed_spinor + 0.02 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        phase = np.exp(1j * self.seed_k * pos[0].reshape(1, -1))
        psi = weights[:, None] * envelope.reshape(1, -1) * phase
        noise = rng.standard_normal((3, self.size)) + 1j * rng.standard_normal((3, self.size))
        psi = psi + 0.005 * noise * np.abs(envelope.reshape(1, -1))
        psi = psi.reshape((3,) + self.shape)
        f = SpinorField(psi, self.axes, self.dv)
        return f.normalized()

    def _spatial_fft(self, flat):
        spatial_axes = tuple(range(1, 1 + self.grid.dimension))
        return np.fft.fftn(flat.reshape((3,) + self.shape), axes=spatial_axes).reshape(3, -1)

    def _spatial_ifft(self, flat):
        spatial_axes = tuple(range(1, 1 + self.grid.dimension))
        return np.fft.ifftn(flat.reshape((3,) + self.shape), axes=spatial_axes).reshape(3, -1)

    def local_spin_density(self, flat, other=None):
        """Cartesian spin densities (3, M) of a flattened field, or with ``other``
        the symmetric bilinear form Re(psi^dagger J chi), which is F at chi = psi.

        Closed form for spin 1 in (+1, 0, -1) order: Fx + i Fy =
        sqrt(2) (psi_p1* psi_0 + psi_0* psi_m1) and Fz = |psi_p1|^2 - |psi_m1|^2.
        """
        p, z, m = flat
        if other is None:
            f_plus = SQRT2 * (p.conj() * z + z.conj() * m)
            f_z = p.real**2 + p.imag**2 - m.real**2 - m.imag**2
        else:
            q, y, l = other
            f_plus = (SQRT2 / 2.0) * (p.conj() * y + z.conj() * l + q.conj() * z + y.conj() * m)
            f_z = (p.conj() * q).real - (m.conj() * l).real
        return np.stack((f_plus.real, f_plus.imag, f_z))

    def _kinetic_energy(self, flat):
        """<psi|H1|psi> of a flattened field, from one forward transform."""
        psi_k = self._spatial_fft(flat)
        kinetic = np.einsum("im,mij,jm->", psi_k.conj(), self.h1, psi_k).real
        return float(kinetic) * self.dv / self.size

    def _kinetic_apply(self, matrices, flat):
        """Apply per-momentum 3x3 matrices (M, 3, 3) to a flattened field in real space."""
        return self._spatial_ifft(np.einsum("mij,jm->im", matrices, self._spatial_fft(flat)))

    def apply_hamiltonian(self, flat):
        """(H psi, E) of a normalized flattened field: the mean-field Hamiltonian
        H = H1 + V + c0 n + c2 F.J at the field's own density n and spin
        density F applied to it, and the energy per atom E = <psi|H|psi> minus
        the interaction energy (c0 int n^2 + c2 int |F|^2) / 2, which
        <psi|H|psi> counts twice."""
        n = np.sum(flat.real**2 + flat.imag**2, axis=0)
        h_psi = self._kinetic_apply(self.h1, flat) + (self.v_trap + self.c0 * n) * flat
        e_int = self.c0 * float(np.dot(n, n))
        if self.c2 != 0.0:
            f_loc = self.local_spin_density(flat)
            h_psi += _apply_spin_vector(self.c2 * f_loc, flat)
            e_int += self.c2 * float(np.sum(f_loc * f_loc))
        return h_psi, (float(np.vdot(flat, h_psi).real) - 0.5 * e_int) * self.dv

    def gradient(self, flat, h_psi):
        """(mu, H psi - mu psi) with mu = <psi|H|psi>: the chemical potential and
        the eigen-residual, which is half the energy gradient on the unit sphere."""
        mu = float(np.vdot(flat, h_psi).real) * self.dv
        return mu, h_psi - mu * flat

    def curvature(self, flat, direction, mu):
        """Second derivative at t = 0 of the energy along the great circle
        cos(t) psi + sin(t) d, for a unit direction d orthogonal to psi:
        2 (<d|H|d> - mu) + c0 int dn^2 + c2 int |dF|^2, where dn = 2 Re psi* d
        and dF = 2 Re psi^dagger J d are the first-order density changes."""
        n = np.sum(flat.real**2 + flat.imag**2, axis=0)
        n_d = np.sum(direction.real**2 + direction.imag**2, axis=0)
        local = float(np.dot(self.v_trap + self.c0 * n, n_d)) * self.dv
        d_h_d = self._kinetic_energy(direction) + local
        e2 = 0.0
        if self.c0 != 0.0:
            dn = 2.0 * np.sum((flat.conj() * direction).real, axis=0)
            e2 += self.c0 * float(np.dot(dn, dn)) * self.dv
        if self.c2 != 0.0:
            f_loc = self.local_spin_density(flat)
            df = 2.0 * self.local_spin_density(flat, direction)
            d_h_d += self.c2 * float(np.sum(f_loc * self.local_spin_density(direction))) * self.dv
            e2 += self.c2 * float(np.sum(df * df)) * self.dv
        return e2 + 2.0 * (d_h_d - mu)

    def precondition(self, flat):
        """(h1(k) - min h1 + alpha)^-1 applied to a flattened field in real space."""
        return self._kinetic_apply(self.preconditioner, flat)

    def step(self, flat, direction, theta):
        """Line-search trial: the normalized field cos(theta) psi + sin(theta) d
        for a unit direction d orthogonal to psi, with its H apply and energy
        (see apply_hamiltonian)."""
        trial = math.cos(theta) * flat + math.sin(theta) * direction
        trial /= math.sqrt(float(np.vdot(trial, trial).real) * self.dv)
        return (trial,) + self.apply_hamiltonian(trial)

    def residual(self, field):
        """Eigen-residual ||H psi - mu psi|| of a normalized field, with
        mu = <psi|H|psi> and H the mean-field Hamiltonian at the field's own
        density and spin density (norms include the volume element)."""
        flat = field.psi.reshape(3, -1)
        _, grad = self.gradient(flat, self.apply_hamiltonian(flat)[0])
        return float(np.linalg.norm(grad) * math.sqrt(self.dv))


def _apply_spin_vector(a, flat):
    """(a.J) psi for a real spin vector a (3, M) per point, in (+1, 0, -1) order:
    (a_z psi_p1 + a_- psi_0, a_+ psi_p1 + a_- psi_m1, a_+ psi_0 - a_z psi_m1)
    with a_- = (a_x - i a_y)/sqrt(2) and a_+ its conjugate."""
    a_minus = (a[0] - 1j * a[1]) / SQRT2
    a_plus = a_minus.conj()
    p, z, m = flat
    return np.stack((a[2] * p + a_minus * z, a_plus * p + a_minus * m, a_plus * z - a[2] * m))


def build_problem(params, trap, interaction, grid):
    """Validate the configuration and assemble a GpProblem."""
    return GpProblem(params, trap, interaction, grid)


@dataclass
class GpResult:
    """Ground-state field and its energy per atom, the energy trace (one row
    every ``check_every`` iterations plus the last), the iteration count, the
    energy decrease of the last iteration and the eigen-residual
    ``GpProblem.residual`` of the returned field, whose square fell below tol."""

    field: SpinorField
    energy: float
    energy_trace: np.ndarray  # rows (iteration, energy)
    n_steps: int
    last_change: float
    residual: float


def imaginary_time_ground_state(problem, dt=SOLVER_DEFAULTS["dt"], tol=SOLVER_DEFAULTS["tol"],
                                max_steps=SOLVER_DEFAULTS["max_steps"],
                                check_every=SOLVER_DEFAULTS["check_every"], seed=0):
    """Minimize the discrete energy on the unit sphere; stop when both the
    squared eigen-residual ||H psi - mu psi||^2, which bounds the energy error
    by about tol over the excitation gap, and the energy decrease of the last
    iteration are below tol.

    Preconditioned Riemannian conjugate gradient (Antoine, Levitt & Tang,
    J. Comput. Phys. 343, 92 (2017)): the residual is preconditioned by
    (h1(k) - min h1 + alpha)^-1, Polak-Ribiere+ directions are projected onto
    the tangent space, and the field moves along the great circle
    cos(t) psi + sin(t) d.  The first trial angle is the Newton step
    -E'/E'' with the nonlinear curvature included (``dt`` when E'' <= 0),
    halved until the energy falls by the Armijo fraction of its slope; every
    iteration therefore lowers the energy, up to rounding near convergence.

    At most ``max_steps`` iterations run.  A trial whose energy is not finite
    aborts at once, with the last accepted field in the error context; so does
    a line search that finds no lower energy.  Bad settings raise ConfigError
    (see check_solver_settings).
    """
    check_solver_settings(dt, tol, max_steps, check_every)
    flat = problem.initial_field(seed).psi.reshape(3, -1)
    dv = problem.dv

    def dot(a, b):
        return float(np.vdot(a, b).real) * dv

    def energy_trace():
        rows = trace if trace[-1][0] == done else trace + [(done, energy)]
        return np.array(rows)

    def fail(message, step):
        return ConvergenceError(message, context={
            "last_good": flat.reshape((3,) + problem.shape), "step": step,
            "trace": energy_trace()})

    h_psi, energy = problem.apply_hamiltonian(flat)
    trace = [(0, energy)]
    done = 0
    last_change = 0.0
    direction = grad_prev = pgrad_prev = None
    # a diverging trial overflows inside the step; the finiteness check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            mu, grad = problem.gradient(flat, h_psi)
            res2 = dot(grad, grad)
            if res2 < tol and last_change < tol:
                break
            if done == max_steps:
                raise fail(f"no convergence within {max_steps} steps "
                           f"(residual {math.sqrt(res2):.3e})", done)

            pgrad = problem.precondition(grad)
            pgrad -= (np.vdot(flat, pgrad) * dv) * flat
            if direction is None:
                direction = -pgrad
            else:
                beta = max(0.0, dot(grad - grad_prev, pgrad) / dot(grad_prev, pgrad_prev))
                direction = beta * (direction - (np.vdot(flat, direction) * dv) * flat) - pgrad
                if dot(grad, direction) >= 0.0:
                    direction = -pgrad
            grad_prev, pgrad_prev = grad, pgrad
            unit = direction / math.sqrt(dot(direction, direction))
            slope = 2.0 * dot(grad, unit)
            e2 = problem.curvature(flat, unit, mu)
            theta = -slope / e2 if e2 > 0.0 else dt

            for _ in range(MAX_BACKTRACKS):
                trial, h_trial, e_trial = problem.step(flat, unit, theta)
                if not math.isfinite(e_trial):
                    raise fail(f"energy became non-finite at step {done + 1}", done + 1)
                if e_trial - energy <= ARMIJO * theta * slope + ROUNDOFF * max(1.0, abs(energy)):
                    break
                theta *= 0.5
            else:
                raise fail(f"line search found no lower energy at step {done + 1} "
                           f"(residual {math.sqrt(res2):.3e})", done + 1)
            flat, h_psi = trial, h_trial
            last_change = energy - e_trial
            energy = e_trial
            done += 1
            if done % check_every == 0:
                trace.append((done, energy))

    out = SpinorField(flat.reshape((3,) + problem.shape), problem.axes, problem.dv)
    return GpResult(field=out.check_norm(), energy=energy, energy_trace=energy_trace(),
                    n_steps=done, last_change=last_change,
                    residual=math.sqrt(res2))


def gp_moment_set(field, n_atoms):
    """Full eight-operator Hartree MomentSet of a spinor field.

    These are Hartree moments of an N-fold product of the normalized spinor
    mode, from its one-body density matrix: means N<g> and covariances
    N(<gh>_sym - <g><h>).  They track mean-field trends but carry no
    entanglement, so they cannot certify squeezing below the product-state
    limit.
    """
    rho = field.density_matrix()
    stack = generator_stack()
    g1 = np.einsum("aij,ji->a", stack, rho).real
    second = np.einsum("aik,bkj,ji->ab", stack, stack, rho).real
    second = (second + second.T) / 2.0
    return MomentSet(int(n_atoms), n_atoms * g1, n_atoms * (second - np.outer(g1, g1)))


def save_field(field, path, meta=None):
    """Checkpoint a field to a self-describing .npz (little-endian doubles)."""
    psi = np.ascontiguousarray(field.psi.astype("<c16"))
    axes = {f"axis{i}": np.ascontiguousarray(a.astype("<f8"))
            for i, a in enumerate(field.axes)}
    np.savez(
        path,
        psi=psi,
        dv=np.array([field.dv], dtype="<f8"),
        dimension=np.array([len(field.axes)], dtype="<i8"),
        meta=np.array([json.dumps(meta or {}, sort_keys=True)]),
        **axes,
    )


def load_field(path):
    with np.load(path, allow_pickle=False) as data:
        dim = int(data["dimension"][0])
        axes = tuple(data[f"axis{i}"] for i in range(dim))
        return SpinorField(psi=data["psi"], axes=axes, dv=float(data["dv"][0]))

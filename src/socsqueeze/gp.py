"""Spinor Gross-Pitaevskii ground states by imaginary-time split-stepping.

Dimensionless convention: lengths in inverse recoil momenta, energies in
recoil energies, so the single-particle part at quasimomentum k along the
coupled axis is the same 3x3 matrix the band module diagonalizes, and a trap
of ordinary frequency f contributes (f / recoil_frequency)^2 x^2 / 4 per
axis.  The wavefunction is normalized to one; atom number enters only
through the interaction couplings and the moment scaling.

The coupled axis is always axis 0.  Boundaries are periodic (the kinetic
step is spectral); traps must decay the state well inside the box, which the
grid preconditions enforce.

Quasi-1D/2D: interactions are reduced by the Gaussian ground-state overlap
of each transverse axis, sqrt(w_t / 4 pi) per axis with w_t the transverse
frequency ratio; the reduction requires a trap.
"""

import json
import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .algebra import SQRT2, generator_stack
from .bands import build_hamiltonian
from .errors import ConfigError, ConvergenceError
from .metrics import GENERATOR_SPECS, MomentSet, spec_moments

HBAR = 1.054571817e-34          # J s
RB87_MASS = 1.44316060e-25      # kg
BOHR_RADIUS = 5.29177210903e-11  # m

_AXIS_NAMES = ("x", "y", "z")

# imaginary-time settings of imaginary_time_ground_state and of a config's [solver]
SOLVER_DEFAULTS = MappingProxyType({"dt": 0.01, "tol": 1e-10, "max_steps": 400000,
                                    "check_every": 50})


@dataclass(frozen=True)
class TrapConfig:
    """Harmonic trap frequencies in Hz plus the recoil frequency in Hz.

    ``recoil_frequency`` (the recoil energy over Planck's constant) is the
    bridge between laboratory Hz and the dimensionless units; it has no
    default on purpose.
    """

    omega_x: float
    omega_y: float
    omega_z: float
    recoil_frequency: float

    def __post_init__(self):
        for name in ("omega_x", "omega_y", "omega_z", "recoil_frequency"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ConfigError(f"{name} must be a positive finite frequency, got {v!r}")

    def frequency_ratio(self, axis):
        """Dimensionless trap frequency of an axis (0=x, 1=y, 2=z)."""
        return (self.omega_x, self.omega_y, self.omega_z)[axis] / self.recoil_frequency

    def oscillator_length(self, axis):
        """Ground-state Gaussian length of an axis in recoil units."""
        return math.sqrt(2.0 / self.frequency_ratio(axis))


@dataclass(frozen=True)
class InteractionConfig:
    """s-wave scattering lengths (Bohr radii) of the two collision channels
    and the atom number that scales the mean-field couplings."""

    a_s0: float
    a_s2: float
    N: float

    def __post_init__(self):
        if not (math.isfinite(self.N) and self.N >= 1):
            raise ConfigError(f"atom number must be finite and >= 1, got {self.N!r}")
        for name in ("a_s0", "a_s2"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: per-axis point counts and half-widths (recoil units)."""

    n_points: tuple
    extent: tuple

    def __post_init__(self):
        n = tuple(int(v) for v in np.atleast_1d(self.n_points))
        l = tuple(float(v) for v in np.atleast_1d(self.extent))
        if not 1 <= len(n) <= 3 or len(n) != len(l):
            raise ConfigError(f"grid needs matching 1..3 n_points/extent, got {n} / {l}")
        if any(v < 8 for v in n):
            raise ConfigError(f"each axis needs >= 8 points, got {n}")
        if any(not (math.isfinite(v) and v > 0.0) for v in l):
            raise ConfigError(f"extents must be positive, got {l}")
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "extent", l)

    @property
    def dimension(self):
        return len(self.n_points)

    def axes(self):
        out = []
        for n, l in zip(self.n_points, self.extent):
            dx = 2.0 * l / n
            out.append(-l + dx * np.arange(n))
        return tuple(out)

    @property
    def dv(self):
        return float(np.prod([2.0 * l / n for n, l in zip(self.n_points, self.extent)]))


def raman_recoil_momentum(recoil_frequency):
    """Recoil momentum (1/m) for a recoil frequency in Hz (Rb-87 mass)."""
    return math.sqrt(4.0 * math.pi * RB87_MASS * recoil_frequency / HBAR)


def mean_field_couplings(interaction, trap, dimension):
    """Density and spin coupling constants in solver units.

    The 3-D couplings are (8 pi / 3) N (a0 + 2 a2) and (8 pi / 3) N (a2 - a0)
    with scattering lengths in recoil units; below three dimensions each
    integrated-out transverse axis multiplies them by its Gaussian overlap.
    """
    if interaction is None:
        return 0.0, 0.0
    if trap is None:
        if dimension < 3:
            raise ConfigError("reduced-dimension interactions need a trap "
                              "(transverse confinement sets the reduction)")
        raise ConfigError("3-D interactions need a trap to fix the recoil frequency; "
                          "pass a TrapConfig")
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

    def check_norm(self, tol=1e-10):
        n = self.norm()
        if abs(n - 1.0) > tol:
            raise ConfigError(f"field norm {n} is not 1 within {tol}")
        return self


def field_populations(field):
    """Component fractions (rho_m1, rho_0, rho_p1) of a spinor field."""
    rho = np.diag(field.density_matrix()).real
    return float(rho[2]), float(rho[1]), float(rho[0])


class GpProblem:
    """Discretized problem: grids, trap potential, couplings, spectral kinetics."""

    def __init__(self, params, trap, interaction, grid, boundary="periodic"):
        if boundary != "periodic":
            raise ConfigError(f"only periodic boundaries are supported, got {boundary!r}")
        self.params = params
        self.trap = trap
        self.interaction = interaction
        self.grid = grid
        self.boundary = boundary
        d = grid.dimension

        if trap is not None:
            for axis in range(d):
                needed = 3.0 * trap.oscillator_length(axis)
                if grid.extent[axis] < needed:
                    raise ConfigError(
                        f"grid half-width {grid.extent[axis]} on axis "
                        f"{_AXIS_NAMES[axis]} is under 3 oscillator lengths ({needed:.3g}); "
                        "enlarge the box"
                    )

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
        self._h1_eig = np.linalg.eigh(self.h1)
        self._propagator_cache = {}

        if trap is not None:
            pos = np.meshgrid(*self.axes, indexing="ij")
            v = np.zeros(self.shape)
            for axis in range(d):
                w = trap.frequency_ratio(axis)
                v = v + 0.25 * w * w * pos[axis] ** 2
            self.v_trap = v.reshape(-1)
        else:
            self.v_trap = np.zeros(self.size)

    def kinetic_propagator(self, tau):
        """exp(-tau H1(k)) at every grid momentum, cached per tau."""
        key = float(tau)
        if key not in self._propagator_cache:
            w, u = self._h1_eig
            phase = np.exp(-key * w)
            self._propagator_cache[key] = np.einsum(
                "kij,kj,klj->kil", u, phase, u.conj()
            )
        return self._propagator_cache[key]

    def initial_field(self, seed=0):
        """Broken-symmetry Gaussian seed with small reproducible noise.

        The envelope width follows the trap oscillator length (widened toward
        the interacting cloud radius when the density coupling is repulsive);
        component weights are asymmetric and a touch of white noise populates
        every grid momentum so no ground state is missed by symmetry.
        """
        rng = np.random.default_rng(seed)
        pos = np.meshgrid(*self.axes, indexing="ij")
        envelope = np.ones(self.shape)
        for axis in range(self.grid.dimension):
            if self.trap is not None:
                sigma = self.trap.oscillator_length(axis)
                if self.c0 > 0.0 and axis == 0:
                    w = self.trap.frequency_ratio(axis)
                    r_tf = (3.0 * self.c0 / (w * w)) ** (1.0 / 3.0)
                    sigma = max(sigma, 0.5 * r_tf)
            else:
                sigma = self.grid.extent[axis] / 4.0
            envelope = envelope * np.exp(-(pos[axis] ** 2) / (2.0 * sigma**2))
        weights = np.array([0.2, 1.0, 0.15]) + 0.02 * (
            rng.standard_normal(3) + 1j * rng.standard_normal(3)
        )
        psi = weights[:, None] * envelope.reshape(1, -1)
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

    def local_spin_density(self, flat):
        """Cartesian spin densities (3, M) of a flattened field.

        Closed form for spin 1 in (+1, 0, -1) order: Fx + i Fy =
        sqrt(2) (psi_p1* psi_0 + psi_0* psi_m1) and Fz = |psi_p1|^2 - |psi_m1|^2.
        """
        p, z, m = flat
        f_plus = SQRT2 * (p.conj() * z + z.conj() * m)
        f_z = p.real**2 + p.imag**2 - m.real**2 - m.imag**2
        return np.stack((f_plus.real, f_plus.imag, f_z))

    def energy(self, field):
        """Energy per atom of a normalized field (recoil units)."""
        flat = field.psi.reshape(3, -1)
        psi_k = self._spatial_fft(flat)
        kinetic = np.einsum("im,mij,jm->", psi_k.conj(), self.h1, psi_k).real
        kinetic *= self.dv / self.size
        n = np.sum(np.abs(flat) ** 2, axis=0)
        e = kinetic + float(np.sum(self.v_trap * n) * self.dv)
        if self.c0 != 0.0:
            e += 0.5 * self.c0 * float(np.sum(n * n) * self.dv)
        if self.c2 != 0.0:
            f_loc = self.local_spin_density(flat)
            e += 0.5 * self.c2 * float(np.sum(f_loc**2) * self.dv)
        return e

    def _kinetic_apply(self, matrices, flat):
        """Apply per-momentum 3x3 matrices (M, 3, 3) to a flattened field in real space."""
        return self._spatial_ifft(np.einsum("mij,jm->im", matrices, self._spatial_fft(flat)))

    def step(self, flat, dt):
        """One Strang split step of imaginary time dt (not normalized): a
        kinetic half-step, the local factor exp(-dt (V + c0 n)) exp(-dt c2 F.J)
        at the intermediate density, and a second kinetic half-step."""
        half = self.kinetic_propagator(0.5 * dt)
        flat = self._kinetic_apply(half, flat)

        n = np.sum(np.abs(flat) ** 2, axis=0)
        scalar = np.exp(-dt * (self.v_trap + self.c0 * n))
        if self.c2 != 0.0:
            flat = spin_exponential(self.c2 * self.local_spin_density(flat), dt, flat)
        flat = scalar * flat

        return self._kinetic_apply(half, flat)

    def residual(self, field):
        """Eigen-residual ||H psi - mu psi|| of a normalized field, with
        mu = <psi|H|psi> and H the mean-field Hamiltonian at the field's own
        density and spin density (norms include the volume element)."""
        flat = field.psi.reshape(3, -1)
        h_psi = self._kinetic_apply(self.h1, flat)
        n = np.sum(np.abs(flat) ** 2, axis=0)
        h_psi = h_psi + (self.v_trap + self.c0 * n) * flat
        if self.c2 != 0.0:
            h_psi = h_psi + _apply_spin_vector(self.c2 * self.local_spin_density(flat), flat)
        mu = float(np.vdot(flat, h_psi).real * self.dv)
        return float(np.linalg.norm(h_psi - mu * flat) * math.sqrt(self.dv))


def _apply_spin_vector(a, flat):
    """(a.J) psi for a real spin vector a (3, M) per point, in (+1, 0, -1) order:
    (a_z psi_p1 + a_- psi_0, a_+ psi_p1 + a_- psi_m1, a_+ psi_0 - a_z psi_m1)
    with a_- = (a_x - i a_y)/sqrt(2) and a_+ its conjugate."""
    a_minus = (a[0] - 1j * a[1]) / SQRT2
    a_plus = a_minus.conj()
    p, z, m = flat
    return np.stack((a[2] * p + a_minus * z, a_plus * p + a_minus * m, a_plus * z - a[2] * m))


def spin_exponential(a, dt, flat):
    """exp(-dt a.J) psi point by point, without building matrices.

    For spin 1, (a.J)^3 = |a|^2 (a.J), so exp(-dt a.J) = 1 - s a.J + c (a.J)^2
    with s = sinh(dt|a|)/|a| and c = (cosh(dt|a|) - 1)/|a|^2, which tend to
    dt and dt^2/2 as |a| -> 0.
    """
    a_norm = np.sqrt(np.sum(a * a, axis=0))
    small = a_norm < 1e-14
    safe = np.where(small, 1.0, a_norm)
    sih = np.where(small, dt, np.sinh(dt * a_norm) / safe)
    coh = np.where(small, 0.5 * dt * dt, (np.cosh(dt * a_norm) - 1.0) / safe**2)
    aj_psi = _apply_spin_vector(a, flat)
    return flat - sih * aj_psi + coh * _apply_spin_vector(a, aj_psi)


def build_problem(params, trap, interaction, grid, boundary="periodic"):
    """Validate the configuration and assemble a GpProblem."""
    if not isinstance(grid, GridSpec):
        grid = GridSpec(*grid)
    return GpProblem(params, trap, interaction, grid, boundary=boundary)


@dataclass
class GpResult:
    """Converged field plus the recorded energy trace and two diagnostics:
    the per-step energy change at the final check and the eigen-residual
    ``GpProblem.residual`` of the returned field.  Neither enters the
    stopping rule."""

    field: SpinorField
    energy: float
    energy_trace: np.ndarray  # rows (step, energy)
    n_steps: int
    converged: bool
    last_change: float
    residual: float


def check_solver_settings(dt, tol, max_steps, check_every):
    """Raise ConfigError unless dt and tol are positive finite numbers and
    max_steps and check_every are positive integers."""
    for name, value in (("dt", dt), ("tol", tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    for name, value in (("max_steps", max_steps), ("check_every", check_every)):
        if not (isinstance(value, numbers.Integral) and value >= 1):
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def imaginary_time_ground_state(problem, dt=SOLVER_DEFAULTS["dt"], tol=SOLVER_DEFAULTS["tol"],
                                max_steps=SOLVER_DEFAULTS["max_steps"],
                                check_every=SOLVER_DEFAULTS["check_every"], seed=0, initial=None):
    """Relax to the ground state; terminate when the per-step energy change
    drops below tol.

    The energy is sampled every ``check_every`` steps and after the last of
    at most ``max_steps`` steps; after the run the recorded trace must be
    non-increasing over its final 90% (within a slack tied to tol), otherwise
    the step size is too large and a ConvergenceError is raised.  A step
    whose norm is not finite aborts at once, with the last finite state
    attached to the error context.  Bad settings raise ConfigError (see
    check_solver_settings).
    """
    check_solver_settings(dt, tol, max_steps, check_every)
    field = problem.initial_field(seed) if initial is None else initial.normalized()
    flat = field.psi.reshape(3, -1).astype(complex)
    flat = flat / np.sqrt(np.sum(np.abs(flat) ** 2) * problem.dv)
    energy = problem.energy(SpinorField(flat.reshape((3,) + problem.shape),
                                        problem.axes, problem.dv))
    trace = [(0, energy)]
    converged = False
    step_count = 0
    last_change = math.nan
    # a blow-up overflows inside the step; the norm check below reports it instead
    with np.errstate(over="ignore", invalid="ignore"):
        while step_count < max_steps:
            block = min(check_every, max_steps - step_count)
            for _ in range(block):
                stepped = problem.step(flat, dt)
                norm = np.sqrt(np.sum(np.abs(stepped) ** 2) * problem.dv)
                step_count += 1
                if not 0.0 < norm < math.inf:
                    raise ConvergenceError(
                        f"field norm became non-finite at step {step_count}; reduce dt",
                        context={"last_good": flat.reshape((3,) + problem.shape),
                                 "step": step_count},
                    )
                flat = stepped / norm
            new_energy = problem.energy(SpinorField(flat.reshape((3,) + problem.shape),
                                                    problem.axes, problem.dv))
            if not np.isfinite(new_energy):
                raise ConvergenceError(
                    f"energy became non-finite at step {step_count}; reduce dt",
                    context={"last_good": flat.reshape((3,) + problem.shape),
                             "step": step_count},
                )
            trace.append((step_count, new_energy))
            last_change = abs(new_energy - energy) / block
            energy = new_energy
            if last_change < tol:
                converged = True
                break

    trace_arr = np.array(trace)
    energies = trace_arr[:, 1]
    tail = energies[len(energies) // 10:]
    slack = max(10.0 * tol * check_every, 1e-12) * max(1.0, float(np.max(np.abs(tail))))
    rises = np.diff(tail) > slack
    if np.any(rises):
        worst = float(np.max(np.diff(tail)))
        raise ConvergenceError(
            f"energy rose by {worst:.3e} during the final 90% of the run; "
            "reduce dt or loosen tol",
            context={"trace": trace_arr},
        )
    if not converged:
        raise ConvergenceError(
            f"no convergence within {max_steps} steps (last per-step change "
            f"{last_change:.3e})",
            context={"trace": trace_arr,
                     "last_good": flat.reshape((3,) + problem.shape)},
        )
    out = SpinorField(flat.reshape((3,) + problem.shape), problem.axes, problem.dv)
    return GpResult(field=out.check_norm(), energy=energy, energy_trace=trace_arr,
                    n_steps=step_count, converged=True, last_change=last_change,
                    residual=problem.residual(out))


def _generator_moments(field, n_atoms):
    """Product-state moments of the eight generators: means N<g>, covariances
    N(<gh>_sym - <g><h>), from the one-body density matrix."""
    rho = field.density_matrix()
    stack = generator_stack()
    g1 = np.einsum("aij,ji->a", stack, rho).real
    second = np.einsum("aik,bkj,ji->ab", stack, stack, rho).real
    second = (second + second.T) / 2.0
    return n_atoms * g1, n_atoms * (second - np.outer(g1, g1))


def gp_moments(field, n_atoms, specs):
    """Product-state collective moments of CollectiveOperatorSpec or SpinOperator
    observables, projected from the generator moments by ``metrics.spec_moments``.

    These are Hartree moments of an N-fold product of the normalized spinor
    mode; they track mean-field trends but carry no entanglement, so they
    cannot certify squeezing below the product-state limit.
    """
    return spec_moments(*_generator_moments(field, n_atoms), specs)


def gp_moment_set(field, n_atoms):
    """Full eight-operator Hartree MomentSet of a spinor field."""
    return MomentSet(int(n_atoms), *gp_moments(field, n_atoms, GENERATOR_SPECS))


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

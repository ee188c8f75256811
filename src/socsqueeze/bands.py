"""Single-particle band structure of the Raman-coupled spin-1 Hamiltonian.

Momentum is measured in recoil units, so the three bare branches are the
shifted parabolas (k+2)^2 - delta, k^2 - epsilon, (k-2)^2 + delta coupled by
the Raman term on the (+1,0) and (0,-1) pairs.  The functions here evaluate
the coupled branches, locate minima of the lowest one, and classify points
of the parameter space by minima count.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT_POINTS, DEFAULT_TOL_DEG, DEFAULT_WINDOW, check_window
from .errors import ConvergenceError

# momentum shift of the +1, 0, -1 components: bare branch i is (k + _SHIFT[i])^2
_SHIFT = (2.0, 0.0, -2.0)
_NEWTON_TOL = 1e-13
_NEWTON_MAX_STEPS = 100


def build_hamiltonian(k, params):
    """Real symmetric 3x3 Hamiltonian at quasimomentum k (recoil units).

    Accepts a scalar or an array of momenta; returns float64 of shape (..., 3, 3).
    """
    k = np.asarray(k, dtype=float)
    h = np.zeros(k.shape + (3, 3))
    h[..., 0, 0] = (k + _SHIFT[0]) ** 2 - params.delta
    h[..., 1, 1] = (k + _SHIFT[1]) ** 2 - params.epsilon
    h[..., 2, 2] = (k + _SHIFT[2]) ** 2 + params.delta
    h[..., 0, 1] = h[..., 1, 0] = params.omega_R / 2.0
    h[..., 1, 2] = h[..., 2, 1] = params.omega_R / 2.0
    return h


def branch_energies(k, params):
    """Eigenvalues of the band Hamiltonian, ascending along the last axis."""
    return np.linalg.eigvalsh(build_hamiltonian(k, params))


def lowest_branch(k, params):
    return branch_energies(k, params)[..., 0]


def _lowest_root(h):
    """Lowest eigenvalue of real symmetric 3x3 matrices (..., 3, 3) in closed form.

    Trigonometric solution of the characteristic cubic.  Where the two lowest
    branches nearly meet it loses accuracy, by about eps * scale^2 / gap and
    at worst sqrt(eps) * scale, so it only seeds the minima search; every
    reported energy comes from ``eigvalsh``.
    """
    q = (h[..., 0, 0] + h[..., 1, 1] + h[..., 2, 2]) / 3.0
    a, b, c = h[..., 0, 0] - q, h[..., 1, 1] - q, h[..., 2, 2] - q
    uu, vv, ww = h[..., 0, 1] ** 2, h[..., 1, 2] ** 2, h[..., 0, 2] ** 2
    p = np.sqrt((a * a + b * b + c * c + 2.0 * (uu + vv + ww)) / 6.0)
    det = a * (b * c - vv) - b * ww - c * uu + 2.0 * h[..., 0, 1] * h[..., 1, 2] * h[..., 0, 2]
    # p = 0 only for a multiple of the identity, where det = 0 and the root is q
    r = np.clip(-det / np.maximum(2.0 * p * p * p, np.finfo(float).tiny), -1.0, 1.0)
    # q + 2p cos(arccos(-r) / 3 + 2 pi / 3), with the cosine's argument folded into [0, pi / 3]
    return q - 2.0 * p * np.cos(np.arccos(r) / 3.0)


@dataclass(frozen=True)
class DispersionResult:
    """Branch energies on a momentum grid plus refined lowest-branch minima."""

    k: np.ndarray
    energies: np.ndarray  # shape (len(k), 3), ascending branches
    minima_k: np.ndarray
    minima_E: np.ndarray

    @property
    def n_minima(self):
        return len(self.minima_k)


def _grid_minima_seeds(k, e):
    """Momenta of the interior grid minima of e; a plateau seeds its midpoint.

    A minimum is a run of equal values (one point for a strict minimum) that
    the grid enters falling and leaves rising, so window edges never count.
    """
    step = np.sign(np.diff(e))
    moves = np.flatnonzero(step)
    into, out = moves[:-1], moves[1:]
    turn = (step[into] < 0.0) & (step[out] > 0.0)
    return k[0] + 0.5 * (into[turn] + 1 + out[turn]) * (k[1] - k[0])


def _refine_minima(k0, dk, params):
    """Stationary points of the lowest branch near every seed k0, all at once.

    Safeguarded Newton on E0'(k) = 0 inside the bracket k0 +- dk.  The
    derivatives come from one batched ``eigh`` per step by Hellmann-Feynman,
    with H' = dH/dk = 2 diag(k + _SHIFT) and H'' = 2 I:
    E0' = v0.H'.v0 and E0'' = 2 + 2 sum_{n>0} (vn.H'.v0)^2 / (E0 - En).  The
    sign of E0' shrinks the bracket; a step that leaves it, or meets
    E0'' <= 0, bisects it instead.  A seed stops once its step is at most
    _NEWTON_TOL, so its result does not depend on the other seeds.
    """
    k = k0
    lo, hi = k - dk, k + dk
    active = np.ones(k.shape, dtype=bool)
    shift = np.array(_SHIFT)
    with np.errstate(divide="ignore", invalid="ignore"):  # E0 = E1 only at omega_R = 0
        for _ in range(_NEWTON_MAX_STEPS):
            w, v = np.linalg.eigh(build_hamiltonian(k, params))
            # g[m, n] = vn.H'.v0 at seed m
            g = ((2.0 * (k[:, None] + shift) * v[:, :, 0])[:, None, :] @ v)[:, 0]
            slope, gn = g[:, 0], g[:, 1:]
            curv = 2.0 - 2.0 * (gn * gn / (w[:, 1:] - w[:, :1])).sum(axis=1)
            lo = np.where(slope < 0.0, k, lo)
            hi = np.where(slope > 0.0, k, hi)
            trial = k - slope / curv
            # inclusive: a converged step may round onto the bracket edge
            inside = (curv > 0.0) & (trial >= lo) & (trial <= hi)
            trial = np.where(active, np.where(inside, trial, 0.5 * (lo + hi)), k)
            active &= np.abs(trial - k) > _NEWTON_TOL
            k = trial
            if not active.any():
                break
    return k


def _minima(k, params):
    """Refined interior minima (k_min, E_min) of the lowest branch seeded on grid k.

    Seeds come from the closed-form lowest root on the grid; energies come
    from ``eigvalsh``.  Every refined point is a minimum: the bracketed
    Newton closes only where the slope turns from - to +, and a kink in the
    lowest of smooth branches always bends down, so it cannot fake one.
    """
    seeds = _grid_minima_seeds(k, _lowest_root(build_hamiltonian(k, params)))
    dk = k[1] - k[0]
    kc = _refine_minima(seeds, dk, params)
    mins = sorted(zip(kc.tolist(), lowest_branch(kc, params).tolist()))

    # merge duplicates from plateau seeds refining to the same point
    merged = []
    for kv, ev in mins:
        if merged and abs(kv - merged[-1][0]) < 0.5 * dk:
            if ev < merged[-1][1]:
                merged[-1] = (kv, ev)
            continue
        merged.append((kv, ev))
    return np.array([m[0] for m in merged]), np.array([m[1] for m in merged])


def _grid(window, n_points):
    check_window(window, n_points)
    return _cached_grid(float(window[0]), float(window[1]), int(n_points))


@lru_cache(maxsize=8)
def _cached_grid(lo, hi, n_points):
    """The momentum grid of one window, built once and shared read-only."""
    k = np.linspace(lo, hi, n_points)
    k.setflags(write=False)
    return k


def dispersion(params, window=DEFAULT_WINDOW, n_points=DEFAULT_POINTS):
    """Evaluate the three branches on a uniform grid and locate lowest-branch minima.

    Interior grid minima (three-point condition, plateau ties resolved to the
    midpoint) are refined by bracketed Newton iteration; window edges are
    never reported as minima.
    """
    k = _grid(window, n_points)
    minima_k, minima_E = _minima(k, params)
    return DispersionResult(k=k, energies=branch_energies(k, params),
                            minima_k=minima_k, minima_E=minima_E)


@dataclass(frozen=True)
class PhaseCell:
    """Minima count and degeneracy flag at one parameter point."""

    n_minima: int
    degenerate: bool
    E_min: float
    k_min: float


def classify(params, tol_deg=DEFAULT_TOL_DEG, window=DEFAULT_WINDOW, n_points=DEFAULT_POINTS):
    """Count lowest-branch minima and flag near-degenerate ones.

    ``degenerate`` means at least two minima lie within ``tol_deg`` of the
    global minimum energy.  E_min/k_min refer to the global minimum.
    """
    minima_k, minima_E = _minima(_grid(window, n_points), params)
    if len(minima_k) == 0:
        raise ConvergenceError(
            "no interior minima found; widen the momentum window",
            context={"params": params, "window": window},
        )
    order = np.argsort(minima_E)
    e_sorted = minima_E[order]
    degenerate = len(minima_k) > 1 and (e_sorted[1] - e_sorted[0]) < tol_deg
    return PhaseCell(
        n_minima=len(minima_k),
        degenerate=bool(degenerate),
        E_min=float(e_sorted[0]),
        k_min=float(minima_k[order][0]),
    )

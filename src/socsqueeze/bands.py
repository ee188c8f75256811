"""Single-particle band structure of the Raman-coupled spin-1 Hamiltonian.

Momentum is measured in recoil units, so the three bare branches are the
shifted parabolas (k+2)^2 - delta, k^2 - epsilon, (k-2)^2 + delta coupled by
the Raman term on the (+1,0) and (0,-1) pairs.  The functions here evaluate
the coupled branches, locate minima of the lowest one, and classify points
of the parameter space by minima count.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_POINTS, DEFAULT_TOL_DEG, DEFAULT_WINDOW, check_window
from .crossing import _refine_crossings
from .errors import ConvergenceError

# momentum shift of the +1, 0, -1 components: bare branch i is (k + _SHIFT[i])^2
_SHIFT = (2.0, 0.0, -2.0)
# grid values per block of the seed scan: cached arrays, amortized numpy call costs
_BLOCK_GRID_POINTS = 32768

# the band parameters of a stack of points, one array per field
_Points = namedtuple("_Points", ("omega_R", "delta", "epsilon"))


def _entries(k, params):
    """The band Hamiltonian at k as (d0, d1, d2, w): its diagonal and its coupling.

    The diagonal is (k+2)^2 - delta, k^2 - epsilon, (k-2)^2 + delta, and the
    Raman coupling w = omega_R / 2 sits on the (+1,0) and (0,-1) pairs; the
    (+1,-1) entry is zero.  k and the parameters broadcast against each other.
    """
    return ((k + _SHIFT[0]) ** 2 - params.delta,
            (k + _SHIFT[1]) ** 2 - params.epsilon,
            (k + _SHIFT[2]) ** 2 + params.delta,
            params.omega_R / 2.0)


def build_hamiltonian(k, params):
    """Real symmetric 3x3 Hamiltonian at quasimomentum k (recoil units).

    Accepts a scalar or an array of momenta, and parameters that broadcast
    against them; returns float64 of shape (..., 3, 3).
    """
    d0, d1, d2, w = _entries(np.asarray(k, dtype=float), params)
    h = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in (d0, d1, d2, w))) + (3, 3))
    h[..., 0, 0], h[..., 1, 1], h[..., 2, 2] = d0, d1, d2
    h[..., 0, 1] = h[..., 1, 0] = h[..., 1, 2] = h[..., 2, 1] = w
    return h


def branch_energies(k, params):
    """Eigenvalues of the band Hamiltonian, ascending along the last axis."""
    return np.linalg.eigvalsh(build_hamiltonian(k, params))


def lowest_branch(k, params):
    return branch_energies(k, params)[..., 0]


@np.errstate(over="ignore", invalid="ignore")
def _lowest_root_grid(k, points):
    """The lowest branch on grid k at every point of a stack, in closed form.

    ``points`` holds one array of shape (m,) per field; returns shape (m, len(k)).
    Trigonometric solution of the characteristic cubic in trace-free form
    (Smith, Commun. ACM 4, 168 (1961)).  With q = tr H / 3, the deviations
    a, b, c of the diagonal from q sum to zero, so det(H - q) = b u and
    p^2 = (b^2 + 3 w^2 - u) / 3 with u = a c + w^2, and the lowest root is
    q - 2 p cos(arccos(r) / 3) with r = -b u / (2 p^3).  The shifts _SHIFT
    sum to zero and the middle one is zero, so q(k) = q(0) + k^2, b does not
    depend on k, and a(k) = a(0) + 2 _SHIFT[0] k, c(k) = c(0) + 2 _SHIFT[2] k:
    u is one quadratic in k per point.  The passes run in place over two
    buffers of the output's shape.
    Where the two lowest branches nearly meet the root loses accuracy, by
    about eps * scale^2 / gap and at worst sqrt(eps) * scale, so it only
    seeds the minima search; every reported energy comes from ``eigvalsh``.
    Entries above about 1e154 overflow: the scan is then not finite.
    """
    d0, d1, d2, w = (field[:, None] for field in _entries(0.0, points))
    q0 = (d0 + d1 + d2) / 3.0
    a0, b, c0 = d0 - q0, d1 - q0, d2 - q0
    ww = w * w
    root = np.add(a0, 2.0 * _SHIFT[0] * k)  # a
    spare = np.add(c0, 2.0 * _SHIFT[2] * k)  # c
    root *= spare
    root += ww  # u
    np.subtract(b * b + 3.0 * ww, root, out=spare)
    spare *= 4.0 / 3.0  # 4 p^2
    # the floor keeps r finite at p = 0, which only a multiple of the identity
    # has; there u = 0 and the root is q
    np.maximum(spare, np.finfo(float).tiny, out=spare)
    root *= -4.0 * b
    root /= spare
    np.sqrt(spare, out=spare)  # 2 p
    root /= spare  # r = -4 b u / (4 p^2 * 2 p)
    np.clip(root, -1.0, 1.0, out=root)
    # q + 2p cos(arccos(-r) / 3 + 2 pi / 3), with the cosine's argument folded into [0, pi / 3]
    np.arccos(root, out=root)
    root /= 3.0
    np.cos(root, out=root)
    root *= spare
    np.add(k * k, q0, out=spare)  # q
    return np.subtract(spare, root, out=root)


@dataclass(frozen=True, eq=False)
class DispersionResult:
    """Branch energies on a momentum grid plus refined lowest-branch minima."""

    k: np.ndarray
    energies: np.ndarray  # shape (len(k), 3), ascending branches
    minima_k: np.ndarray
    minima_E: np.ndarray

    @property
    def n_minima(self):
        return len(self.minima_k)


def _grid_minima_seeds(k, e, lo=0):
    """Interior grid minima of rows e on grid points lo, lo + 1, ... of k: (row, momentum).

    A minimum is a run of equal values (one point for a strict minimum) that
    the grid enters falling and leaves rising, so window edges never count; a
    plateau seeds its midpoint.  Seeds come row by row, ascending in k.  Every
    minimum starts where a falling step meets one that does not fall; only a
    run that starts there is walked, to its first step that moves.
    """
    m, n = e.shape
    # the steps of each row, closed by a NaN step: it moves and does not rise
    step = np.empty((m, n))
    np.subtract(e[:, 1:], e[:, :-1], out=step[:, :-1])
    step[:, -1:] = np.nan
    row, into = np.nonzero((step[:, :-1] < 0.0) & (step[:, 1:] >= 0.0))
    out = into + 1
    flat = step[row, out] == 0.0
    if flat.any():
        moving = np.flatnonzero(step != 0.0)
        start = row[flat] * n + out[flat]
        out[flat] = moving[np.searchsorted(moving, start)] - row[flat] * n
    rises = step[row, out] > 0.0
    return row[rises], k[0] + 0.5 * (into[rises] + out[rises] + 1 + 2 * lo) * (k[1] - k[0])


def _refine_minima(k0, dk, params):
    """Minima of the lowest branch near seeds k0 +- dk, for one point's ``params`` or one
    entry per seed: the upward zeros of E0' = 2k + v0.diag(2 _SHIFT).v0."""
    return _refine_crossings(k0, dk, lambda k: build_hamiltonian(k, params), 2.0,
                             np.multiply(2.0, _SHIFT), 1.0)


def _points(omega_R, delta, epsilon):
    """The band fields, each a float or a 1-D array, as float arrays of one length."""
    return _Points(*np.broadcast_arrays(*(np.array(field, dtype=float, ndmin=1)
                                          for field in (omega_R, delta, epsilon))))


def _minima(k, points):
    """Refined interior minima of the lowest branch at a stack of points, seeded on grid k.

    ``points`` holds one array of shape (m,) per field (``_points``).  Returns
    (point, k_min, E_min, overflow): one entry per minimum of its point index,
    ascending, then its momentum, ascending within a point, and its energy;
    and per point, whether it has no seed because its scan overflowed.  Seeds
    come from the closed-form lowest root on the grid, in blocks of points;
    all are refined by one call of ``crossing``'s Newton, energies by ``eigvalsh``.
    Every refined point is a minimum: the bracketed Newton closes only where
    the slope turns from - to +, and a kink in the lowest of smooth branches
    always bends down, so it cannot fake one.

    E0 - k^2 is the lowest eigenvalue of k diag(2 _SHIFT) + H(0), concave with
    slope in [-4, 4], so E0' = 0 only at |k| <= 2: only grid points with
    |k| <= 2 + 2 dk (a seed and its neighbours) are scanned, and seeds keep
    their full-grid index.  A point without a seed is scanned on all of k.

    Minima are not merged: no two of a point lie within half a grid step.
    Two seeds of a point lie at least two grid steps apart (a falling step
    comes between the rising step of one and the falling step of the next),
    and each refines inside its own bracket of one step either side, so two
    refined points can meet only near a grid point above both neighbours,
    with a minimum on each side.  Minima that close arise where one minimum
    splits into two at +-k0; in the quartic normal form of the split the
    grid shows the maximum between them only once k0 > dk / sqrt(2), so
    resolved pairs lie at least 1.41 steps apart.  Scans agree: the closest
    pair lay 1.49 steps apart at the delta = 0 split near omega_R = 9.76,
    epsilon = -3 on the default grid, 28 steps apart over 20 000 random
    delta = 0 points and 182 over 50 000 random points on that grid, and
    1.45 steps apart over 40 000 random points on grids of 5-59 points.
    """
    dk = k[1] - k[0]
    reach = max(map(abs, _SHIFT)) + 2.0 * dk
    lo, hi = np.searchsorted(k, -reach), np.searchsorted(k, reach, side="right")
    size = max(1, _BLOCK_GRID_POINTS // max(1, hi - lo))
    found = []
    for start in range(0, max(len(points.omega_R), 1), size):
        block = _Points(*(field[start:start + size] for field in points))
        row, seed = _grid_minima_seeds(k, _lowest_root_grid(k[lo:hi], block), lo)
        found.append((start + row, seed))
    point, seeds = map(np.concatenate, zip(*found))
    # the points without a seed, then those of them whose scan overflows
    overflow = np.bincount(point, minlength=len(points.omega_R)) == 0
    unseeded = np.flatnonzero(overflow)
    for rows in np.array_split(unseeded, 1 + len(unseeded) * len(k) // _BLOCK_GRID_POINTS):
        scan = _lowest_root_grid(k, _Points(*(field[rows] for field in points)))
        overflow[rows] = ~np.isfinite(scan).all(axis=1)
    per_seed = _Points(*(field[point] for field in points))
    kc = _refine_minima(seeds, dk, per_seed)
    return point, kc, lowest_branch(kc, per_seed), overflow


def _grid(window, n_points):
    check_window(window, n_points)
    return np.linspace(float(window[0]), float(window[1]), int(n_points))


def dispersion(params, window=DEFAULT_WINDOW, n_points=DEFAULT_POINTS):
    """Evaluate the three branches on a uniform grid and locate lowest-branch minima.

    Interior grid minima (three-point condition, plateau ties resolved to the
    midpoint) are refined by bracketed Newton iteration; window edges are
    never reported as minima.  Raises ConvergenceError if the closed-form
    scan overflows float64 and so finds no minimum.
    """
    k = _grid(window, n_points)
    point = _points(params.omega_R, params.delta, params.epsilon)
    _, minima_k, minima_E, overflow = _minima(k, point)
    if overflow[0]:
        raise _point_error(point, 0, window, overflow=True)
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
    global minimum energy.  E_min/k_min refer to the global minimum.  Raises
    ConvergenceError if the window holds no interior minimum, or if the
    closed-form scan overflows float64 and so finds none.
    """
    (cell,) = classify_points(params.omega_R, params.delta, params.epsilon, tol_deg=tol_deg,
                              window=window, n_points=n_points)
    if isinstance(cell, ConvergenceError):
        raise cell
    return cell


def classify_points(omega_R, delta, epsilon, tol_deg=DEFAULT_TOL_DEG, window=DEFAULT_WINDOW,
                    n_points=DEFAULT_POINTS):
    """``classify`` at every point of parameter arrays, in blocks on one momentum grid.

    Each band field is a float or a 1-D array, and together they broadcast to
    one length m.  Returns m entries: each point's PhaseCell, or the
    ConvergenceError that ``classify`` raises there.  Each point's arithmetic
    is elementwise, so its entry does not depend on the other points.  Two
    minima differ in energy by at most (k2 - k1)^2 <= 16: E0 - k^2 is concave.
    """
    k = _grid(window, n_points)
    points = _points(omega_R, delta, epsilon)
    point, minima_k, minima_E, overflow = _minima(k, points)
    bounds = np.searchsorted(point, np.arange(len(overflow) + 1))
    return [_point_error(points, i, window, overflow[i]) if lo == hi
            else _phase_cell(minima_k[lo:hi], minima_E[lo:hi], tol_deg)
            for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))]


def _point_error(points, i, window, overflow):
    """The error of point i of a stack, which has no minimum, named by its band fields."""
    message = ("the band scan overflows float64; the Hamiltonian entries are too large"
               if overflow else "no interior minima found; widen the momentum window")
    context = {name: float(field[i]) for name, field in points._asdict().items()}
    return ConvergenceError(message, context={**context, "window": window})


def _phase_cell(minima_k, minima_E, tol_deg):
    """The PhaseCell of one point's minima."""
    order = np.argsort(minima_E)
    e_sorted = minima_E[order]
    degenerate = len(minima_k) > 1 and (e_sorted[1] - e_sorted[0]) < tol_deg
    return PhaseCell(
        n_minima=len(minima_k),
        degenerate=bool(degenerate),
        E_min=float(e_sorted[0]),
        k_min=float(minima_k[order][0]),
    )

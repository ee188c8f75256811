"""The one refiner of the band minima and the Gaussian mean field; it needs numpy only."""

import numpy as np

_NEWTON_TOL = 1e-13
_NEWTON_MAX_STEPS = 100


def _refine_crossings(t, w, matrix_at, a, c, kappa):
    """Upward zeros of f(t) = a t + v0.diag(c).v0 near every start t, all at once.

    v0 is the lowest eigenvector of ``matrix_at(t)``, whose t-derivative is
    kappa diag(c) up to a multiple of the identity.  Safeguarded Newton inside
    t +- w: with g_n = vn.diag(a t + c).v0 from one batched ``eigh`` per step,
    f = g_0 and f' = a - 2 kappa sum_{n>0} g_n^2 / (lambda_n - lambda_0) by
    Hellmann-Feynman.  The sign of f shrinks the bracket; a step that leaves
    it, or meets f' <= 0 or NaN (a degenerate lambda_0, where f jumps), bisects
    it instead.  Each start stops on its own once its step is at most _NEWTON_TOL.
    """
    lo, hi = t - w, t + w
    active = np.ones(t.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_STEPS):
            lam, v = np.linalg.eigh(matrix_at(t))
            g = (((a * t[:, None] + c) * v[:, :, 0])[:, None, :] @ v)[:, 0]
            slope, gn = g[:, 0], g[:, 1:]
            curv = a - 2.0 * kappa * (gn * gn / (lam[:, 1:] - lam[:, :1])).sum(axis=1)
            lo = np.where(slope < 0.0, t, lo)
            hi = np.where(slope > 0.0, t, hi)
            trial = t - slope / curv
            # inclusive: a converged step may round onto the bracket edge
            inside = (curv > 0.0) & (trial >= lo) & (trial <= hi)
            trial = np.where(active, np.where(inside, trial, 0.5 * (lo + hi)), t)
            active &= np.abs(trial - t) > _NEWTON_TOL
            t = trial
            if not active.any():
                break
    return t

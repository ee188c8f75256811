"""Collective-spin moment sets and squeezing metrics.

A MomentSet is backend-agnostic: exact diagonalization, the Gaussian
expansion, and the mean-field GP solver all reduce their states to the full,
finite block of first and second moments of the eight collective generators,
``MomentSet.project`` carries them onto any collective observable, and every
metric here is a function of those moments alone.  The two squeezing
parameters at any angle are one 2x2 quadratic form of the covariances.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .algebra import (
    GENERATOR_LABELS,
    CollectiveOperatorSpec,
    SpinOperator,
    generator_matrix,
    generator_stack,
)
from .errors import MomentInputError, UnsupportedObservableError

_IDX = {lbl: i for i, lbl in enumerate(GENERATOR_LABELS)}

# a negative variance within this fraction of the largest second moment is
# roundoff and is floored at zero where moments are made; a deeper one stays
# and fails MomentSet.validate
_ROUNDOFF = 1e-12

# folding tolerance for the theta seam at 0 = pi (minima within it on either
# side are reported as 0; theta and theta + pi label the same quadrature pair)
_THETA_SEAM = 1e-7

# relative eigenvalue splitting of the quadrature matrix below which every
# angle is a minimum; such ties resolve to theta = 0
_THETA_TIE = 1e-12


def _index(label):
    try:
        return _IDX[label]
    except KeyError:
        raise MomentInputError(f"unknown operator label {label!r}") from None


def _floor_roundoff(means, cov):
    """Floor, in place, the variances on the diagonal of ``cov`` that are
    negative by roundoff alone."""
    d = np.diag(cov)
    scale = max(1.0, float(np.max(np.abs(cov + np.outer(means, means)))))
    np.fill_diagonal(cov, np.where(d < -_ROUNDOFF * scale, d, np.maximum(d, 0.0)))


def _spec_weights(spec):
    if isinstance(spec, SpinOperator):
        spec = CollectiveOperatorSpec.for_label(spec.label)
    if not isinstance(spec, CollectiveOperatorSpec):
        raise UnsupportedObservableError(
            f"cannot represent {type(spec).__name__} as a collective observable; "
            "use a CollectiveOperatorSpec or a SpinOperator"
        )
    return spec.coefficients


@dataclass
class MomentSet:
    """First and symmetrized central second moments of the eight generators.

    ``means[a]`` is <F_a> and ``covariances[a, b]`` is
    Cov(F_a, F_b) = <{F_a,F_b}>/2 - <F_a><F_b>, both in canonical label order.
    A set is always the full, finite block: construction raises
    MomentInputError on a wrong shape or a NaN or infinite entry.  Variances
    negative by roundoff are floored at zero on construction.
    """

    N: int
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        self.means = np.array(self.means, dtype=float)
        self.covariances = np.array(self.covariances, dtype=float)
        if self.means.shape != (8,) or self.covariances.shape != (8, 8):
            raise MomentInputError("a moment set needs means[8] and covariances[8, 8]")
        if not (np.isfinite(self.means).all() and np.isfinite(self.covariances).all()):
            raise MomentInputError("a moment set needs finite means and covariances")
        _floor_roundoff(self.means, self.covariances)

    def mean(self, label):
        return float(self.means[_index(label)])

    def cov(self, a, b):
        return float(self.covariances[_index(a), _index(b)])

    def project(self, specs):
        """Means W m and symmetrized covariances W C W^T of collective observables.

        Each spec, a CollectiveOperatorSpec or a SpinOperator, is one row of
        weights W over the generators; other observables raise
        UnsupportedObservableError.  Variances negative by roundoff are
        floored at zero.
        """
        w = np.array([_spec_weights(s) for s in specs])
        means = w @ self.means
        cov = w @ self.covariances @ w.T
        cov = (cov + cov.T) / 2.0
        _floor_roundoff(means, cov)
        return means, cov

    def to_arrays(self):
        """Copies of (means 8-vector, covariance 8x8)."""
        return self.means.copy(), self.covariances.copy()

    def validate(self):
        """Check that no variance is negative (roundoff was floored on
        construction) and that the covariance block is PSD, down to 1e-9
        times max(1, its largest entry)."""
        d = np.diag(self.covariances)
        low = np.flatnonzero(d < 0.0)
        if low.size:
            a = GENERATOR_LABELS[low[0]]
            raise MomentInputError(f"variance of {a} is {d[low[0]]}, below the roundoff floor")
        c = self.covariances
        w = np.linalg.eigvalsh(c)
        scale = max(1.0, float(np.max(np.abs(c))))
        if w[0] < -1e-9 * scale:
            raise MomentInputError(f"covariance matrix not PSD: min eigenvalue {w[0]}")
        return self


def xi_x(moments):
    """Variance of the transverse collective spin over the atom number."""
    return moments.cov("Jx", "Jx") / moments.N


def quadratures(theta):
    """Weight vectors of the rotated quadrature pair at angle theta.

    Returns (plus, minus): cos(t) Jx + sin(t) Qyz and cos(t) Qzx + sin(t) Jy.
    """
    c, s = math.cos(theta), math.sin(theta)
    plus = CollectiveOperatorSpec.from_weights({"Jx": c, "Qyz": s})
    minus = CollectiveOperatorSpec.from_weights({"Qzx": c, "Jy": s})
    return plus, minus


def _quadrature_matrix(moments):
    """Entries (a, b, off) of the 2x2 quadrature matrix
    M = [[V(Jx)+V(Jy), C(Jx,Qyz)-C(Qzx,Jy)], [., V(Qyz)+V(Qzx)]]: the
    variance of the plus quadrature at t plus that of the minus quadrature at
    t + pi/2 is (cos t, sin t) M (cos t, sin t)^T."""
    c = moments.cov
    a = c("Jx", "Jx") + c("Jy", "Jy")
    b = c("Qyz", "Qyz") + c("Qzx", "Qzx")
    off = c("Jx", "Qyz") - c("Qzx", "Jy")
    return a, b, off


def _quadrature_form(a, b, off, theta):
    co, si = math.cos(theta), math.sin(theta)
    return co * co * a + si * si * b + 2.0 * co * si * off


def _uv_scale(moments):
    """sqrt(3) |<F_Y>|, or MomentInputError when that mean is degenerate."""
    mean_y = moments.mean("Y")
    if abs(mean_y) < 1e-9 * moments.N:
        raise MomentInputError(
            f"|<F_Y>| = {abs(mean_y)} is below 1e-9*N; xi_uv denominator is degenerate"
        )
    return math.sqrt(3.0) * abs(mean_y)


def xi_dcz(moments, theta):
    """Two-quadrature squeezing parameter at angle theta (shot-noise normalized)."""
    return _quadrature_form(*_quadrature_matrix(moments), theta) / (2.0 * moments.N)


def xi_uv(moments, theta):
    """Quadrupole-normalized squeezing parameter at angle theta.

    Uses |<F_Y>| as the denominator scale; raises when that mean is too close
    to zero for the ratio to be meaningful.
    """
    return _quadrature_form(*_quadrature_matrix(moments), theta) / _uv_scale(moments)


_NORMS = {"dcz": lambda m: 2.0 * m.N, "uv": _uv_scale}


def _quadrature_minimum(moments):
    """(theta*, lambda_min) of the quadrature-pair variance over theta.

    The numerator of xi_dcz and xi_uv at angle t is (cos t, sin t) M
    (cos t, sin t)^T (see ``_quadrature_matrix``), so its minimum over t is
    the smaller eigenvalue of M and theta* is the angle of that eigenvector,
    taken modulo pi.  When the two eigenvalues tie every angle is a minimum
    and theta* = 0; an angle within _THETA_SEAM of the seam 0 = pi is
    reported as 0.  The returned value is the form at the reported angle.
    """
    a, b, off = _quadrature_matrix(moments)
    if math.hypot((a - b) / 2.0, off) <= _THETA_TIE * max(1.0, abs(a + b) / 2.0):
        theta = 0.0
    else:
        theta = (0.5 * math.atan2(-off, (b - a) / 2.0)) % math.pi
        if min(theta, math.pi - theta) < _THETA_SEAM:
            theta = 0.0
    return theta, _quadrature_form(a, b, off, theta)


def optimize_theta(moments, metric="dcz"):
    """Minimize a squeezing metric over the quadrature angle on [0, pi).

    Closed form: the minimum is the smaller eigenvalue of the 2x2 quadrature
    matrix M (see ``_quadrature_matrix``) over 2N for 'dcz' and over
    sqrt(3)|<F_Y>| for 'uv', so both metrics share theta*.  A tie resolves
    to 0, and an angle within 1e-7 of the seam 0 = pi is reported as 0.

    Returns (theta_star, xi_star).
    """
    try:
        norm = _NORMS[metric]
    except KeyError:
        raise MomentInputError(f"unknown squeezing metric {metric!r}; use 'dcz' or 'uv'") from None
    theta, lam = _quadrature_minimum(moments)
    return theta, lam / norm(moments)


def rotation_coefficients(angle):
    """8x8 map of basis operators under conjugation by exp(-i angle Jy).

    For spin 1 the rotation is the degree-2 polynomial
    exp(-i a Jy) = I - i sin(a) Jy + (cos(a) - 1) Jy^2, and conjugation keeps
    operators inside the traceless Hermitian basis, so the map is exact.
    """
    jy = generator_matrix("Jy")
    eye = np.eye(3, dtype=complex)
    u = eye - 1j * math.sin(angle) * jy + (math.cos(angle) - 1.0) * (jy @ jy)
    stack = generator_stack()
    rotated = u.conj().T @ stack @ u
    # expand each rotated generator over the basis: c_gh = tr(G'_g G_h)/2
    coeff = 0.5 * np.einsum("gij,hji->gh", rotated, stack)
    if np.max(np.abs(coeff.imag)) > 1e-12:
        raise AssertionError("rotation coefficients acquired an imaginary part")
    return coeff.real


def rf_rotate(moments, angle):
    """Transform a full moment set by a collective rotation about Jy.

    Models the detection pulse that maps the squeezed quadrature onto a
    population-measurable axis.
    """
    mean_vec, cov_mat = moments.to_arrays()
    c = rotation_coefficients(angle)
    return MomentSet(moments.N, c @ mean_vec, c @ cov_mat @ c.T)


def populations(moments):
    """Component fractions (rho_m1, rho_0, rho_p1) from the diagonal means.

    Exact identities: the quadrupole mean fixes n_0 and the longitudinal spin
    fixes the +1/-1 split; the three fractions sum to one by construction.
    """
    n = moments.N
    mz = moments.mean("Jz")
    my = moments.mean("Y")
    n0 = (n - math.sqrt(3.0) * my) / 3.0
    npl = (n - n0 + mz) / 2.0
    nmi = (n - n0 - mz) / 2.0
    return nmi / n, n0 / n, npl / n


@dataclass(frozen=True)
class SqueezingReport:
    """Flat report of the squeezing metrics and populations for one state."""

    N: int
    xi_x: float
    xi_dcz_min: float
    theta_dcz: float
    xi_uv_min: float
    theta_uv: float
    rho_m1: float
    rho_0: float
    rho_p1: float
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        d = asdict(self)
        d.update(d.pop("extras"))
        return d


def build_report(moments, extras=None):
    """Evaluate all metrics on one moment set and bundle them.

    The quadrature matrix is formed once, so theta_dcz == theta_uv.
    """
    moments.validate()
    theta, lam = _quadrature_minimum(moments)
    rho_m1, rho_0, rho_p1 = populations(moments)
    return SqueezingReport(
        N=moments.N,
        xi_x=xi_x(moments),
        xi_dcz_min=lam / (2.0 * moments.N),
        theta_dcz=theta,
        xi_uv_min=lam / _uv_scale(moments),
        theta_uv=theta,
        rho_m1=rho_m1,
        rho_0=rho_0,
        rho_p1=rho_p1,
        extras=dict(extras or {}),
    )

"""Squeezing metrics against closed-form oracles.

Product states give exact collective moments (means N<g>, covariances
N(<{ga,gb}>/2 - <ga><gb>)), and the two-quadrature sum is an exact quadratic
form in (cos 2t, sin 2t), so both the metric formulas and the closed-form
angle optimizer have independent references.
"""

import math

import numpy as np
import pytest

from socsqueeze.algebra import GENERATOR_LABELS, collective_weights, generator_matrix, generator_stack
from socsqueeze.errors import MomentInputError
from socsqueeze.metrics import (
    MomentSet,
    SqueezingReport,
    build_report,
    optimize_theta,
    populations,
    quadratures,
    rf_rotate,
    rotation_coefficients,
    xi_dcz,
    xi_uv,
    xi_x,
)


def product_moments(N, psi):
    """Exact collective moments of N atoms all in single-particle state psi."""
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    stack = generator_stack()
    g = np.real(np.einsum("i,aij,j->a", psi.conj(), stack, psi))
    sym = np.real(np.einsum("i,aik,bkj,j->ab", psi.conj(), stack, stack, psi))
    sym = 0.5 * (sym + sym.T)
    cov = N * (sym - np.outer(g, g))
    return MomentSet(N, N * g, cov)


VACUUM = product_moments(100, [0.0, 1.0, 0.0])


def test_quadrature_weights_at_axes():
    plus, minus = quadratures(0.0)
    assert plus[GENERATOR_LABELS.index("Jx")] == 1.0
    assert minus[GENERATOR_LABELS.index("Qzx")] == 1.0
    plus, minus = quadratures(math.pi / 2.0)
    assert abs(plus[GENERATOR_LABELS.index("Qyz")] - 1.0) <= 1e-15
    assert abs(minus[GENERATOR_LABELS.index("Jy")] - 1.0) <= 1e-15
    # each is a real 8-vector weighing only its two labels
    for w, labels in ((plus, ("Jx", "Qyz")), (minus, ("Qzx", "Jy"))):
        assert w.shape == (8,) and w.dtype == float
        others = [i for i, lbl in enumerate(GENERATOR_LABELS) if lbl not in labels]
        assert not w[others].any()


def test_vacuum_is_at_shot_noise():
    assert abs(xi_x(VACUUM) - 1.0) <= 1e-12
    for theta in (0.0, 0.3, 1.1, 2.9):
        assert abs(xi_dcz(VACUUM, theta) - 1.0) <= 1e-12
        assert abs(xi_uv(VACUUM, theta) - 1.0) <= 1e-12


def test_vacuum_covariance_entries():
    # all atoms in m=0: transverse pairs at N, number-like operators frozen
    for lbl in ("Jx", "Jy", "Qyz", "Qzx"):
        assert abs(VACUUM.cov(lbl, lbl) - 100.0) <= 1e-12
    for lbl in ("Jz", "Y", "Qxy", "D"):
        assert abs(VACUUM.cov(lbl, lbl)) <= 1e-12
    assert abs(VACUUM.mean("Y") + 200.0 / math.sqrt(3.0)) <= 1e-12


def synthetic_set(N, vxx, vyy, vqq, vzz, cxq, czy):
    """Six quadrature covariances and <Y>; every other entry is zero."""
    cov = np.zeros((8, 8))
    for (a, b), v in {
        ("Jx", "Jx"): vxx, ("Jy", "Jy"): vyy,
        ("Qyz", "Qyz"): vqq, ("Qzx", "Qzx"): vzz,
        ("Jx", "Qyz"): cxq, ("Jy", "Qzx"): czy,
    }.items():
        i, j = GENERATOR_LABELS.index(a), GENERATOR_LABELS.index(b)
        cov[i, j] = cov[j, i] = v
    means = np.zeros(8)
    means[GENERATOR_LABELS.index("Y")] = -2.0 * N / math.sqrt(3.0)
    return MomentSet(N, means, cov)


def test_dcz_matches_hand_formula():
    m = synthetic_set(100, 80.0, 120.0, 130.0, 90.0, 15.0, -10.0)
    t = 0.7
    c, s = math.cos(t), math.sin(t)
    v_plus = c * c * 80.0 + s * s * 130.0 + 2 * c * s * 15.0
    v_minus = s * s * 90.0 + c * c * 120.0 - 2 * c * s * (-10.0)
    assert abs(xi_dcz(m, t) - (v_plus + v_minus) / 200.0) <= 1e-12


def test_optimizer_matches_quadratic_form_minimum():
    # total variance is (A+B)/2 + (A-B)/2 cos 2t + C sin 2t
    vxx, vyy, vqq, vzz, cxq, czy = 80.0, 120.0, 130.0, 90.0, 15.0, -10.0
    m = synthetic_set(100, vxx, vyy, vqq, vzz, cxq, czy)
    A, B, C = vxx + vyy, vqq + vzz, cxq - czy
    t_star = 0.5 * math.atan2(-C, -(A - B) / 2.0) % math.pi
    v_star = ((A + B) / 2.0 - math.hypot((A - B) / 2.0, C)) / 200.0
    theta, value = optimize_theta(m, "dcz")
    assert abs(theta - t_star) <= 1e-7
    assert abs(value - v_star) <= 1e-12


def _quadrature_oracle(m):
    """The analytic atan2 minimum of the quadrature variance: (theta*, xi_dcz*)."""
    A = m.cov("Jx", "Jx") + m.cov("Jy", "Jy")
    B = m.cov("Qyz", "Qyz") + m.cov("Qzx", "Qzx")
    C = m.cov("Jx", "Qyz") - m.cov("Qzx", "Jy")
    t_star = 0.5 * math.atan2(-C, -(A - B) / 2.0) % math.pi
    return t_star, ((A + B) / 2.0 - math.hypot((A - B) / 2.0, C)) / (2.0 * m.N)


def _pair_weights(angles):
    """Weight rows (angle, pair, generator) of the plus quadrature at t and the
    minus quadrature at t + pi/2, the pair whose variances xi_dcz sums."""
    return np.array([[quadratures(t)[0], quadratures(t + math.pi / 2.0)[1]] for t in angles])


def _brute_xi_dcz(m, w):
    """diag(W C W^T) summed over each pair, over 2N: xi_dcz at every angle of w."""
    return np.einsum("tpa,ab,tpb->t", w, m.covariances, w) / (2.0 * m.N)


def test_closed_form_angle_matches_oracles_on_random_covariances():
    rng = np.random.default_rng(2012)
    grid = _pair_weights(np.arange(720) * (math.pi / 720))
    for _ in range(50):
        a = rng.standard_normal((8, 8))
        m = MomentSet(100, 50.0 * rng.standard_normal(8), 10.0 * a @ a.T)
        t_star, v_star = _quadrature_oracle(m)
        theta, value = optimize_theta(m, "dcz")
        d = abs(theta - t_star)
        assert min(d, math.pi - d) <= 1e-7
        assert abs(value - v_star) <= 1e-12 * max(1.0, v_star)
        # brute force over the full covariance: the minimum is attained at
        # theta* and no grid angle beats it
        tol = 1e-12 * max(1.0, value)
        assert abs(_brute_xi_dcz(m, _pair_weights([theta]))[0] - value) <= tol
        assert _brute_xi_dcz(m, grid).min() >= value - tol
        assert abs(xi_dcz(m, theta) - value) <= tol
        # the uv minimum shares the angle and the numerator
        theta_uv, value_uv = optimize_theta(m, "uv")
        assert theta_uv == theta
        assert abs(value_uv - xi_uv(m, theta)) <= 1e-12 * max(1.0, value_uv)
        report = build_report(m)
        assert report.theta_dcz == report.theta_uv == theta
        assert report.xi_dcz_min == value and report.xi_uv_min == value_uv


def test_six_entry_set_evaluates():
    m = synthetic_set(100, 80.0, 120.0, 130.0, 90.0, 15.0, -10.0)
    for metric in ("dcz", "uv"):
        theta, value = optimize_theta(m, metric)
        assert 0.0 <= theta < math.pi and value > 0.0


def test_optimizer_tie_resolves_to_zero():
    theta, value = optimize_theta(VACUUM, "dcz")
    assert theta == 0.0
    assert abs(value - 1.0) <= 1e-12


def test_optimizer_folds_seam_to_zero():
    # minima 2.5e-11 past 0 and 2.5e-11 short of pi, inside the seam
    # tolerance on either side of 0 = pi, must report 0
    m = synthetic_set(100, 100.0, 100.0, 102.0, 102.0, -5e-11, 5e-11)
    theta, _ = optimize_theta(m, "dcz")
    assert theta == 0.0
    m = synthetic_set(100, 100.0, 100.0, 102.0, 102.0, 5e-11, -5e-11)
    theta, _ = optimize_theta(m, "dcz")
    assert theta == 0.0


def test_uv_scales_by_quadrupole_mean():
    m = synthetic_set(100, 80.0, 120.0, 130.0, 90.0, 15.0, -10.0)
    t = 0.4
    expect = xi_dcz(m, t) * 2 * 100.0 / (math.sqrt(3.0) * abs(m.mean("Y")))
    assert abs(xi_uv(m, t) - expect) <= 1e-12


def test_uv_degenerate_denominator_raises():
    m = synthetic_set(100, 80.0, 120.0, 130.0, 90.0, 15.0, -10.0)
    m.means[GENERATOR_LABELS.index("Y")] = 1e-8  # below 1e-9 * N
    with pytest.raises(MomentInputError):
        xi_uv(m, 0.0)


def test_unknown_metric_rejected():
    with pytest.raises(MomentInputError):
        optimize_theta(VACUUM, metric="wineland")


def test_moment_set_is_full_and_finite():
    means, cov = VACUUM.to_arrays()
    for bad in (np.nan, np.inf, -np.inf):
        bad_means = means.copy()
        bad_means[GENERATOR_LABELS.index("Qxy")] = bad
        with pytest.raises(MomentInputError):
            MomentSet(100, bad_means, cov)
        bad_cov = cov.copy()
        bad_cov[1, 4] = bad_cov[4, 1] = bad
        with pytest.raises(MomentInputError):
            MomentSet(100, means, bad_cov)
    with pytest.raises(MomentInputError):
        MomentSet(100, means[:7], cov)
    with pytest.raises(MomentInputError):
        MomentSet(100, means, cov[:, :7])
    # the atom number is a positive integer, stored as an int
    for n in (0, -1, 2.5, 0.5, np.nan, np.inf, 100 + 0j, "100", None):
        with pytest.raises(MomentInputError, match="positive integral N"):
            MomentSet(n, means, cov)
    for n in (100, 100.0, np.int64(100), np.float64(100.0)):
        m = MomentSet(n, means, cov)
        assert type(m.N) is int and m.N == 100
    with pytest.raises(MomentInputError):
        VACUUM.mean("Jw")
    with pytest.raises(MomentInputError):
        VACUUM.cov("Jx", "Jw")
    copies = VACUUM.to_arrays()
    for a in copies:
        a += 1.0
    assert np.array_equal(VACUUM.means, means) and np.array_equal(VACUUM.covariances, cov)


def test_covariance_lookup_is_symmetric():
    m = synthetic_set(10, 1.0, 1.0, 1.0, 1.0, 0.25, 0.0)
    assert m.cov("Jx", "Qyz") == m.cov("Qyz", "Jx")


def test_validate_flags_negative_variance():
    m = synthetic_set(10, -1e-6, 1.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(MomentInputError):
        m.validate()


def test_roundoff_negative_variance_is_floored_on_construction():
    # -1e-10 is roundoff against second moments of order 1e4 (N = 100 atoms
    # in m = 0 put <F_Y^2> at 4e4/3); -1e-6 is not and stays for validate
    means, cov = VACUUM.to_arrays()
    iz = GENERATOR_LABELS.index("Jz")
    cov[iz, iz] = -1e-10
    assert MomentSet(100, means, cov).validate().cov("Jz", "Jz") == 0.0
    cov[iz, iz] = -1e-6
    m = MomentSet(100, means, cov)
    assert m.cov("Jz", "Jz") == -1e-6
    with pytest.raises(MomentInputError):
        m.validate()


def test_project_needs_only_entries_of_nonzero_weight():
    c, s = math.cos(0.3), math.sin(0.3)
    plus, minus = quadratures(0.3)
    base = synthetic_set(100, 80.0, 120.0, 130.0, 90.0, 15.0, -10.0)
    # entries the plus quadrature and <Y> do not weigh, filled with other values
    filled = MomentSet(100, np.where(base.means == 0.0, 7.0, base.means),
                       np.where(base.covariances == 0.0, 3.0, base.covariances))
    for m in (base, filled):
        _, cov = m.project([plus, minus])
        assert abs(cov[0, 0] - (c * c * 80.0 + s * s * 130.0 + 2 * c * s * 15.0)) <= 1e-12
        means, _ = m.project([collective_weights({"Y": 1.0}), collective_weights({"Jz": 1.0})])
        assert abs(means[0] + 200.0 / math.sqrt(3.0)) <= 1e-12


def test_validate_flags_indefinite_full_block():
    cov = np.zeros((8, 8))
    cov[0, 1] = cov[1, 0] = 5.0
    m = MomentSet(10, np.zeros(8), cov)
    with pytest.raises(MomentInputError):
        m.validate()


def test_rotation_coefficients_orthogonal_and_composable():
    c0 = rotation_coefficients(0.0)
    assert np.max(np.abs(c0 - np.eye(8))) <= 1e-14
    a, b = 0.37, 1.21
    ca, cb, cab = rotation_coefficients(a), rotation_coefficients(b), rotation_coefficients(a + b)
    assert np.max(np.abs(ca @ ca.T - np.eye(8))) <= 1e-13
    assert np.max(np.abs(ca @ cb - cab)) <= 1e-13
    assert np.max(np.abs(rotation_coefficients(2.0 * math.pi) - np.eye(8))) <= 1e-13


def test_rf_rotate_matches_rotated_product_state():
    # rotating the moment set must equal building moments of the rotated state
    angle = 0.83
    psi = np.array([0.2 + 0.1j, 0.9, -0.3 + 0.2j])
    jy = generator_matrix("Jy")
    u = (np.eye(3, dtype=complex) - 1j * math.sin(angle) * jy
         + (math.cos(angle) - 1.0) * (jy @ jy))
    before = product_moments(50, psi)
    after = rf_rotate(before, angle)
    direct = product_moments(50, u @ psi)
    ma, ca = after.to_arrays()
    md, cd = direct.to_arrays()
    assert np.max(np.abs(ma - md)) <= 1e-10
    assert np.max(np.abs(ca - cd)) <= 1e-10


def test_rf_rotate_invariants():
    m = product_moments(50, [0.2, 0.9, -0.3])
    full_turn = rf_rotate(m, 2.0 * math.pi)
    m0, c0 = m.to_arrays()
    m1, c1 = full_turn.to_arrays()
    assert np.max(np.abs(m0 - m1)) <= 1e-12
    assert np.max(np.abs(c0 - c1)) <= 1e-12
    # orthogonal map preserves the total mean square and total variance
    half = rf_rotate(m, 0.61)
    mh, ch = half.to_arrays()
    assert abs(np.sum(m0**2) - np.sum(mh**2)) <= 1e-9
    assert abs(np.trace(c0) - np.trace(ch)) <= 1e-9


def test_quarter_turn_swaps_jz_variance_onto_jx():
    m = product_moments(80, [0.35, 0.88, 0.31])
    rot = rf_rotate(m, math.pi / 2.0)
    assert abs(rot.cov("Jz", "Jz") - m.cov("Jx", "Jx")) <= 1e-9


def test_populations_roundtrip():
    # n0=60, n+=25, n-=15 of N=100
    n, n0, npl, nmi = 100, 60.0, 25.0, 15.0
    means = np.zeros(8)
    means[GENERATOR_LABELS.index("Jz")] = npl - nmi
    means[GENERATOR_LABELS.index("Y")] = (npl + nmi - 2.0 * n0) / math.sqrt(3.0)
    m = MomentSet(n, means, np.zeros((8, 8)))
    rm, r0, rp = populations(m)
    assert abs(rm - 0.15) <= 1e-12
    assert abs(r0 - 0.60) <= 1e-12
    assert abs(rp - 0.25) <= 1e-12
    assert abs(rm + r0 + rp - 1.0) <= 1e-12


def test_report_schema_and_values():
    report = build_report(VACUUM, extras={"omega_R": 0.0})
    assert isinstance(report, SqueezingReport)
    d = report.to_dict()
    assert list(d) == ["N", "xi_x", "xi_dcz_min", "theta_dcz", "xi_uv_min",
                       "theta_uv", "rho_m1", "rho_0", "rho_p1", "omega_R"]
    assert d["N"] == 100
    assert abs(d["xi_x"] - 1.0) <= 1e-12
    assert abs(d["rho_0"] - 1.0) <= 1e-12
    assert d["theta_dcz"] == 0.0
    assert d == {
        "N": report.N, "xi_x": report.xi_x, "xi_dcz_min": report.xi_dcz_min,
        "theta_dcz": report.theta_dcz, "xi_uv_min": report.xi_uv_min,
        "theta_uv": report.theta_uv, "rho_m1": report.rho_m1, "rho_0": report.rho_0,
        "rho_p1": report.rho_p1, "omega_R": 0.0,
    }


def test_arrays_roundtrip():
    rng = np.random.default_rng(3)
    mean = rng.standard_normal(8)
    a = rng.standard_normal((8, 8))
    cov = a @ a.T
    m = MomentSet(25, mean, cov)
    m2, c2 = m.to_arrays()
    assert np.max(np.abs(m2 - mean)) == 0.0
    assert np.max(np.abs(c2 - cov)) == 0.0
    assert m.validate() is m

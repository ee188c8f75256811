"""The benchmark's reference computations against closed forms and small oracles."""

import math

import numpy as np
import pytest
import scipy.linalg

import reference as ref

G = ref.spin1_matrices()


def _comm(a, b):
    return a @ b - b @ a


def test_spin1_basis_is_orthonormal_and_traceless():
    for a in ref.LABELS:
        assert np.allclose(G[a], G[a].conj().T)
        assert abs(np.trace(G[a])) < 1e-15
        for b in ref.LABELS:
            assert np.trace(G[a] @ G[b]) == pytest.approx(2.0 * (a == b), abs=1e-14)


def test_spin1_commutators():
    s3 = math.sqrt(3.0)
    assert np.allclose(_comm(G["Jx"], G["Jy"]), 1j * G["Jz"], atol=1e-14)
    assert np.allclose(_comm(G["Jx"], G["Qyz"]), 1j * (s3 * G["Y"] + G["D"]), atol=1e-14)
    assert np.allclose(_comm(G["Jy"], G["Qzx"]), 1j * (-s3 * G["Y"] + G["D"]), atol=1e-14)


def test_undriven_bands_are_the_three_parabolas():
    k = np.linspace(-4.0, 4.0, 41)
    e = np.linalg.eigvalsh(ref.band_matrices(k, 0.0, 0.3, 1.5))
    bare = np.sort(np.stack([(k + 2) ** 2 - 0.3, k * k - 1.5, (k - 2) ** 2 + 0.3], axis=1))
    assert np.allclose(e, bare, atol=1e-12)


def test_band_minima_undriven():
    minima = ref.band_minima(0.0, 0.0, 0.0)
    assert [round(k, 9) for _, k in sorted(minima, key=lambda m: m[1])] == [-2.0, 0.0, 2.0]
    assert all(abs(e) < 1e-12 for e, _ in minima)
    (e0, k0), = ref.band_minima(0.0, 0.0, 6.0)
    assert e0 == pytest.approx(-6.0, abs=1e-14)
    assert abs(k0) < 1e-7  # a flat minimum fixes k only to about sqrt(eps * |E|)


def _symmetric_two_atom(g_by_label, coeffs):
    """Collective Hamiltonian of two atoms from Kronecker products, on the symmetric subspace."""
    eye = np.eye(3)

    def coll(m):
        return np.kron(m, eye) + np.kron(eye, m)

    q, hx, hz, hy = coeffs
    fz = coll(g_by_label["Jz"])
    h = -q * fz @ fz + hx * coll(g_by_label["Jx"]) + hz * fz + hy * coll(g_by_label["Y"])
    swap = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            swap[3 * i + j, 3 * j + i] = 1.0
    w, v = np.linalg.eigh(0.5 * (np.eye(9) + swap))
    basis = v[:, w > 0.5]
    return np.linalg.eigvalsh(basis.conj().T @ h @ basis)


def test_fock_hamiltonian_matches_two_atom_kronecker_oracle():
    fock = ref.FockReference(2)
    assert fock.dim == 6
    params = (1.3, -0.4, 2.5)
    h = fock.hamiltonian(*params).toarray()
    oracle = _symmetric_two_atom(G, ref.effective_coefficients(*params, 2))
    assert np.allclose(np.linalg.eigvalsh(h), oracle, atol=1e-12)


def test_ground_state_paths_agree_with_dense_solve():
    for n in (10, 64):  # direct path, then Lanczos (dimension 2145)
        fock = ref.FockReference(n)
        energy, vec, residual = fock.ground_state(2.0, 0.5, 6.0)
        dense = scipy.linalg.eigh(fock.hamiltonian(2.0, 0.5, 6.0).toarray(),
                                  eigvals_only=True, subset_by_index=[0, 0])[0]
        assert energy == pytest.approx(dense, rel=1e-12)
        assert residual < 1e-9


def test_moments_obey_the_su3_casimir():
    # sum_a F_a^2 = 4 (N^2 + 3N) / 3 on the symmetric subspace of N spin-1 atoms
    rng = np.random.default_rng(3)
    fock = ref.FockReference(5)
    vec = rng.standard_normal(fock.dim)
    vec /= np.linalg.norm(vec)
    means, cov = fock.moments(vec)
    assert np.sum(means**2) + np.trace(cov) == pytest.approx(4.0 * (25 + 15) / 3.0, rel=1e-12)
    gap, _ = ref.robertson_gap(means, cov)
    assert gap >= 0.0


def test_angle_minimum_matches_a_scan():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 8))
    cov = a @ a.T
    means = rng.standard_normal(8)
    ix = {lbl: i for i, lbl in enumerate(ref.LABELS)}

    def numerator(t):
        plus = np.zeros(8)
        minus = np.zeros(8)
        plus[ix["Jx"]], plus[ix["Qyz"]] = math.cos(t), math.sin(t)
        minus[ix["Qzx"]], minus[ix["Jy"]] = -math.sin(t), math.cos(t)
        return plus @ cov @ plus + minus @ cov @ minus

    thetas = np.linspace(0.0, math.pi, 200001)
    values = np.array([numerator(t) for t in thetas[::100]])
    best = ref.angle_minimum(10, means, cov)
    assert best["lambda_min"] == pytest.approx(values.min(), rel=1e-5)
    assert best["lambda_min"] <= values.min() + 1e-12
    assert numerator(best["theta"]) == pytest.approx(best["lambda_min"], rel=1e-12)
    assert best["xi_dcz_min"] == pytest.approx(best["lambda_min"] / 20.0)
    assert best["xi_uv_min"] == pytest.approx(
        best["lambda_min"] / (math.sqrt(3.0) * abs(means[ix["Y"]])))
    assert 0.0 <= best["theta"] < math.pi


def test_populations_and_hartree_moments_of_a_polar_state():
    psi = np.zeros((3, 4), dtype=complex)
    psi[1] = 0.5  # all atoms in m = 0, norm 1 with dv = 1
    means, cov = ref.hartree_moments(psi, 1.0, 100.0)
    assert ref.populations(100.0, means) == pytest.approx((0.0, 1.0, 0.0), abs=1e-14)
    ix = {lbl: i for i, lbl in enumerate(ref.LABELS)}
    assert means[ix["Y"]] == pytest.approx(-200.0 / math.sqrt(3.0))
    assert cov[ix["Jx"], ix["Jx"]] == pytest.approx(100.0)  # <0|Jx^2|0> = 1
    gap, _ = ref.robertson_gap(means, cov)
    assert gap >= -1e-9


def _gaussian(x, sigma):
    return (2.0 * math.pi * sigma**2) ** -0.25 * np.exp(-x * x / (4.0 * sigma**2))


def test_gp_energy_of_gaussians():
    x = -20.0 + 40.0 / 512 * np.arange(512)
    dx = x[1] - x[0]
    w, eps = 0.3, 2.0
    psi = np.zeros((3, 512), dtype=complex)
    psi[1] = _gaussian(x, 1.0 / math.sqrt(w))
    assert ref.gp_energy(psi, x, 0.0, 0.0, eps, w, 0.0, 0.0) == pytest.approx(
        ref.oscillator_energy(w, eps), abs=1e-10)

    sigma, delta, c0, c2 = 1.7, 0.6, 3.0, -0.8
    psi = np.zeros((3, 512), dtype=complex)
    psi[0] = _gaussian(x, sigma)  # all in m = +1: kinetic (k+2)^2 - delta, |F|^2 = n^2
    n2 = 1.0 / (2.0 * sigma * math.sqrt(math.pi))
    exact = (1.0 / (4.0 * sigma**2) + 4.0 - delta + 0.25 * w * w * sigma**2
             + 0.5 * (c0 + c2) * n2)
    assert np.sum(np.abs(psi) ** 2) * dx == pytest.approx(1.0, abs=1e-12)
    assert ref.gp_energy(psi, x, 0.0, delta, eps, w, c0, c2) == pytest.approx(exact, abs=1e-9)


def test_mean_field_couplings_scale_as_stated():
    c0, c2 = ref.mean_field_couplings(100.0, 110.0, 1e4, (100.0, 200.0, 300.0), 4000.0, 3)
    assert c2 / c0 == pytest.approx(10.0 / 320.0)
    d0, d2 = ref.mean_field_couplings(100.0, 110.0, 2e4, (100.0, 200.0, 300.0), 4000.0, 1)
    reduction = math.sqrt(0.05 / (4 * math.pi)) * math.sqrt(0.075 / (4 * math.pi))
    assert (d0, d2) == pytest.approx((2 * c0 * reduction, 2 * c2 * reduction), rel=1e-14)

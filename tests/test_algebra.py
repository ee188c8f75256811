"""Operator basis: commutation identities, normalization, weight vectors."""

import numpy as np
import pytest

from socsqueeze.algebra import (
    GENERATOR_LABELS,
    collective_weights,
    commutator,
    generator_matrix,
    generator_stack,
    verify_algebra,
)

TOL = 1e-14


def test_eight_labels_in_canonical_order():
    assert GENERATOR_LABELS == ("Jx", "Jy", "Jz", "Qxy", "Qyz", "Qzx", "D", "Y")
    stack = generator_stack()
    for label, m in zip(GENERATOR_LABELS, stack):
        assert np.array_equal(generator_matrix(label), m)


def test_generator_matrices_are_read_only():
    for label in GENERATOR_LABELS:
        m = generator_matrix(label)
        assert m is generator_matrix(label) and not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


def test_all_generators_hermitian_and_traceless():
    for m in generator_stack():
        assert np.max(np.abs(m - m.conj().T)) <= TOL
        assert abs(np.trace(m)) <= TOL


def test_pairwise_trace_normalization():
    stack = generator_stack()
    gram = np.einsum("aij,bji->ab", stack, stack)
    assert np.max(np.abs(gram.imag)) <= TOL
    assert np.max(np.abs(gram.real - 2.0 * np.eye(8))) <= TOL


def test_verify_algebra_reports_six_identities_below_tolerance():
    report = verify_algebra()
    assert len(report) == 6
    for name, dev in report:
        assert isinstance(name, str) and dev <= TOL, (name, dev)


def test_specific_commutators_match_matrix_level_signs():
    jx, jy, jz = (generator_matrix(l) for l in ("Jx", "Jy", "Jz"))
    qxy, qyz, qzx = (generator_matrix(l) for l in ("Qxy", "Qyz", "Qzx"))
    d, y = generator_matrix("D"), generator_matrix("Y")
    s3 = np.sqrt(3.0)
    assert np.max(np.abs(commutator(jy, jz) - 1j * jx)) <= TOL
    # the quadrupole pair closes on +i Jx (sign fixed by these matrices)
    assert np.max(np.abs(commutator(qxy, qzx) - 1j * jx)) <= TOL
    assert np.max(np.abs(commutator(qyz, d) - 1j * jx)) <= TOL
    assert np.max(np.abs(commutator(qyz, y) - s3 * 1j * jx)) <= TOL
    assert np.max(np.abs(commutator(jx, qyz) - 1j * (s3 * y + d))) <= TOL
    assert np.max(np.abs(commutator(jy, qzx) - 1j * (-s3 * y + d))) <= TOL


def test_angular_momentum_closes_cyclically():
    for a, b, c in (("Jx", "Jy", "Jz"), ("Jy", "Jz", "Jx"), ("Jz", "Jx", "Jy")):
        dev = commutator(generator_matrix(a), generator_matrix(b)) - 1j * generator_matrix(c)
        assert np.max(np.abs(dev)) <= TOL


def test_spin_casimir_is_two():
    total = sum(generator_matrix(l) @ generator_matrix(l) for l in ("Jx", "Jy", "Jz"))
    assert np.max(np.abs(total - 2.0 * np.eye(3))) <= TOL


def test_unknown_label_rejected():
    with pytest.raises(ValueError, match="unknown operator label 'Qxz'; expected one of"):
        generator_matrix("Qxz")


def test_spec_weights_build_the_right_matrix():
    w = collective_weights({"Jx": 0.5, "Y": -1.0})
    expected = 0.5 * generator_matrix("Jx") - generator_matrix("Y")
    assert np.max(np.abs(np.tensordot(w, generator_stack(), axes=(0, 0)) - expected)) <= TOL


def test_spec_requires_real_8_vector():
    w = collective_weights({})
    assert w.shape == (8,) and w.dtype == float and not w.any()


def test_spec_for_label_single_unit_weight():
    w = collective_weights({"Qzx": 1.0})
    assert w[GENERATOR_LABELS.index("Qzx")] == 1.0
    assert np.sum(np.abs(w)) == 1.0


def test_weights_reject_an_unknown_label():
    with pytest.raises(ValueError, match="unknown operator label 'Qxz'; expected one of"):
        collective_weights({"Jx": 1.0, "Qxz": 0.5})

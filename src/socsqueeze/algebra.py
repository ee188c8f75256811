"""Spin-1 operator basis and collective observables.

The eight traceless Hermitian 3x3 matrices used throughout: three angular
momentum components (Jx, Jy, Jz) and five quadrupole matrices (Qxy, Qyz,
Qzx, D, Y), normalized so that tr(Ga Gb) = 2 delta_ab.  Component order is
(+1, 0, -1) everywhere.  A label names one basis operator, and a collective
observable sum_a w_a F_a is its real weight 8-vector w in label order.
"""

import numpy as np

SQRT2 = float(np.sqrt(2.0))
SQRT3 = float(np.sqrt(3.0))

GENERATOR_LABELS = ("Jx", "Jy", "Jz", "Qxy", "Qyz", "Qzx", "D", "Y")


def _build_matrices():
    s = 1.0 / SQRT2
    jx = s * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    jy = 1j * s * np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]], dtype=complex)
    jz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    qxy = 1j * np.array([[0, 0, -1], [0, 0, 0], [1, 0, 0]], dtype=complex)
    qyz = 1j * s * np.array([[0, -1, 0], [1, 0, 1], [0, -1, 0]], dtype=complex)
    qzx = s * np.array([[0, 1, 0], [1, 0, -1], [0, -1, 0]], dtype=complex)
    d = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
    y = np.diag([1.0, -2.0, 1.0]).astype(complex) / SQRT3
    mats = dict(zip(GENERATOR_LABELS, (jx, jy, jz, qxy, qyz, qzx, d, y)))
    for m in mats.values():
        m.setflags(write=False)
    return mats


_MATRICES = _build_matrices()


def _unknown_label(label):
    return ValueError(f"unknown operator label {label!r}; expected one of {GENERATOR_LABELS}")


def generator_matrix(label):
    """The 3x3 matrix of one of the eight basis labels (read-only)."""
    try:
        return _MATRICES[label]
    except KeyError:
        raise _unknown_label(label) from None


def generator_stack():
    """The eight matrices stacked into shape (8, 3, 3), canonical order."""
    return np.stack([_MATRICES[lbl] for lbl in GENERATOR_LABELS])


def commutator(a, b):
    """[a, b] of two 3x3 arrays."""
    return a @ b - b @ a


def collective_weights(mapping):
    """The weight 8-vector of the collective observable sum_a w_a F_a given
    as a {label: w_a} mapping; omitted labels weigh zero."""
    w = np.zeros(8)
    for label, value in mapping.items():
        if label not in _MATRICES:
            raise _unknown_label(label)
        w[GENERATOR_LABELS.index(label)] = value
    return w


def verify_algebra():
    """Check the six commutator identities of the basis at matrix level.

    Returns a list of (identity_name, max_abs_deviation) pairs, one per
    identity, in a fixed order.  All deviations are exact zeros up to float
    roundoff for the implemented matrices.
    """
    g = _MATRICES
    checks = [
        ("[Jy, Jz] = i Jx", commutator(g["Jy"], g["Jz"]) - 1j * g["Jx"]),
        ("[Qxy, Qzx] = i Jx", commutator(g["Qxy"], g["Qzx"]) - 1j * g["Jx"]),
        ("[Qyz, D] = i Jx", commutator(g["Qyz"], g["D"]) - 1j * g["Jx"]),
        ("[Qyz, Y] = sqrt(3) i Jx", commutator(g["Qyz"], g["Y"]) - SQRT3 * 1j * g["Jx"]),
        (
            "[Jx, Qyz] = i (sqrt(3) Y + D)",
            commutator(g["Jx"], g["Qyz"]) - 1j * (SQRT3 * g["Y"] + g["D"]),
        ),
        (
            "[Jy, Qzx] = i (-sqrt(3) Y + D)",
            commutator(g["Jy"], g["Qzx"]) - 1j * (-SQRT3 * g["Y"] + g["D"]),
        ),
    ]
    return [(name, float(np.max(np.abs(dev)))) for name, dev in checks]

"""Spin-1 operator basis and collective observables.

The eight traceless Hermitian 3x3 matrices used throughout: three angular
momentum components (Jx, Jy, Jz) and five quadrupole matrices (Qxy, Qyz,
Qzx, D, Y), normalized so that tr(Ga Gb) = 2 delta_ab.  Component order is
(+1, 0, -1) everywhere.
"""

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class SpinOperator:
    """One basis operator: its label and immutable 3x3 matrix."""

    label: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.label not in GENERATOR_LABELS:
            raise ValueError(
                f"unknown operator label {self.label!r}; expected one of {GENERATOR_LABELS}"
            )


def generator(label):
    """Return the SpinOperator for one of the eight basis labels."""
    return SpinOperator(label, _MATRICES.get(label))


def generators():
    """All eight basis operators in canonical order."""
    return tuple(generator(lbl) for lbl in GENERATOR_LABELS)


def generator_matrix(label):
    """The raw 3x3 matrix for a label (read-only view)."""
    return generator(label).matrix


def generator_stack():
    """The eight matrices stacked into shape (8, 3, 3), canonical order."""
    return np.stack([_MATRICES[lbl] for lbl in GENERATOR_LABELS])


def _as_matrix(op):
    return op.matrix if isinstance(op, SpinOperator) else np.asarray(op, dtype=complex)


def commutator(a, b):
    """[a, b] for SpinOperators or plain 3x3 arrays."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    return ma @ mb - mb @ ma


@dataclass(frozen=True)
class CollectiveOperatorSpec:
    """A collective observable sum_a w_a F_a given by real weights over the basis.

    ``coefficients`` follows the canonical label order.  The single-particle
    matrix of the observable is ``sum_a w_a G_a``.
    """

    coefficients: np.ndarray = field(default_factory=lambda: np.zeros(8))

    def __post_init__(self):
        w = np.asarray(self.coefficients, dtype=float)
        if w.shape != (8,):
            raise ValueError("coefficients must be a real 8-vector")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "coefficients", w)

    @classmethod
    def for_label(cls, label):
        w = np.zeros(8)
        w[GENERATOR_LABELS.index(label)] = 1.0
        return cls(w)

    @classmethod
    def from_weights(cls, weights):
        """Build from a {label: weight} mapping; omitted labels weigh zero."""
        w = np.zeros(8)
        for lbl, val in weights.items():
            w[GENERATOR_LABELS.index(lbl)] = val
        return cls(w)

    def matrix(self):
        return np.tensordot(self.coefficients, generator_stack(), axes=(0, 0))


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

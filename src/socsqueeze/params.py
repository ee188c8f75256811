"""Model parameters and the effective collective-spin coefficients.

Energies are in recoil units (recoil energy = 1) and momenta in units of the
Raman recoil momentum; the atom number N sets the collective spin length.
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class ModelParams:
    """Raman coupling strength, detuning, quadratic shift, atom number."""

    omega_R: float
    delta: float
    epsilon: float
    N: int = 100

    def __post_init__(self):
        for name in ("omega_R", "delta", "epsilon"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v!r}")
        n = self.N
        # integral floats such as 100.0 are accepted: N is the collective spin
        # length, and only its value matters
        if not (isinstance(n, numbers.Real) and math.isfinite(n) and n == int(n) and n >= 1):
            raise ConfigError(f"N must be a positive integer, got {n!r}")

    def replace(self, **kw):
        """A copy with the given fields changed, validated as a new instance is."""
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Coefficients of H = -q Fz^2 + hx Fx + hz Fz + hY FY (recoil units)."""

    q: float
    hx: float
    hz: float
    hY: float


def effective_coefficients(params):
    """Map model parameters onto the collective-spin Hamiltonian coefficients.

    q scales as 1/N so that q*N is size independent; the transverse drive is
    the Raman coupling reduced by sqrt(2), the longitudinal field is the
    negated detuning, and the quadrupole field collects the recoil offset and
    the quadratic shift.
    """
    n = params.N
    return EffectiveCoefficients(
        q=8.0 / n,
        hx=params.omega_R / math.sqrt(2.0),
        hz=-params.delta,
        hY=(4.0 + params.epsilon) / math.sqrt(3.0),
    )

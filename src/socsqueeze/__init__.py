"""Spin-1 spin-orbit-coupled BEC toolkit.

Band structure of the Raman-coupled spin-1 Hamiltonian, collective-spin
squeezing by exact diagonalization or Gaussian fluctuation theory, and spinor
Gross-Pitaevskii ground states, with a config-driven CLI for reproducible
sweeps.

The squeezing backends, ``fockspace`` (ED) and ``gaussian``, load on first
use of one of their names.  The package runs on numpy alone: no module of it
imports scipy.
"""

import importlib

from .algebra import (
    GENERATOR_LABELS,
    CollectiveOperatorSpec,
    SpinOperator,
    commutator,
    generator,
    generator_matrix,
    generators,
    verify_algebra,
)
from .bands import (
    DispersionResult,
    PhaseCell,
    PhaseDiagramResult,
    build_hamiltonian,
    classify,
    dispersion,
    phase_diagram,
    phase_diagram_rows,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DepletedCondensateError,
    MomentInputError,
    UnstableExpansionError,
    UnsupportedObservableError,
)
from .gp import (
    GpProblem,
    InteractionConfig,
    SpinorField,
    TrapConfig,
    build_problem,
    field_populations,
    gp_moment_set,
    gp_moments,
    imaginary_time_ground_state,
    load_field,
    save_field,
)
from .metrics import (
    MomentSet,
    SqueezingReport,
    build_report,
    optimize_theta,
    quadratures,
    rf_rotate,
    xi_dcz,
    xi_uv,
    xi_x,
)
from .params import EffectiveCoefficients, ModelParams, effective_coefficients

__version__ = "0.1.0"

_LAZY = {
    **dict.fromkeys((
        "FockBasis",
        "SymmetricFockState",
        "build_effective_hamiltonian",
        "ed_ground_state",
        "ed_moment_set",
        "ed_moments",
        "fock_basis",
    ), "fockspace"),
    **dict.fromkeys((
        "GaussianSolution",
        "MeanFieldResult",
        "gaussian_moment_set",
        "gaussian_moments",
        "hp_mean_field",
        "hp_quadratic",
        "solve_gaussian",
    ), "gaussian"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

"""Spin-1 spin-orbit-coupled BEC toolkit.

Band structure of the Raman-coupled spin-1 Hamiltonian, collective-spin
squeezing by exact diagonalization or Gaussian fluctuation theory, and spinor
Gross-Pitaevskii ground states, with a config-driven CLI for reproducible
sweeps.

Every layer loads on first use of one of its names: ``import socsqueeze``
imports neither numpy nor any submodule, and ``socsqueeze.classify`` loads
``socsqueeze.bands`` when it is first looked up.  numpy loads in the run that
computes: a CLI process parses its arguments, validates its config and
dispatches without it, and then loads numpy, after it has fixed its BLAS
thread count, and only the layers its command runs.  The package runs on
numpy alone: no module of it imports scipy.
"""

import importlib

__version__ = "0.1.0"

_LAZY = {
    **dict.fromkeys((
        "GENERATOR_LABELS",
        "CollectiveOperatorSpec",
        "SpinOperator",
        "commutator",
        "generator",
        "generator_matrix",
        "generators",
        "verify_algebra",
    ), "algebra"),
    **dict.fromkeys((
        "DispersionResult",
        "PhaseCell",
        "build_hamiltonian",
        "classify",
        "dispersion",
    ), "bands"),
    **dict.fromkeys((
        "GridSpec",
        "InteractionConfig",
        "TrapConfig",
    ), "config"),
    **dict.fromkeys((
        "ConfigError",
        "ConvergenceError",
        "MomentInputError",
        "UnstableExpansionError",
        "UnsupportedObservableError",
    ), "errors"),
    **dict.fromkeys((
        "FockBasis",
        "SymmetricFockState",
        "build_effective_hamiltonian",
        "ed_ground_state",
        "ed_moment_set",
        "fock_basis",
    ), "fockspace"),
    **dict.fromkeys((
        "GaussianSolution",
        "MeanFieldResult",
        "gaussian_moment_set",
        "hp_mean_field",
        "hp_quadratic",
        "solve_gaussian",
    ), "gaussian"),
    **dict.fromkeys((
        "GpProblem",
        "SpinorField",
        "build_problem",
        "field_populations",
        "gp_moment_set",
        "imaginary_time_ground_state",
        "load_field",
        "save_field",
    ), "gp"),
    **dict.fromkeys((
        "MomentSet",
        "SqueezingReport",
        "build_report",
        "optimize_theta",
        "quadratures",
        "rf_rotate",
        "xi_dcz",
        "xi_uv",
        "xi_x",
    ), "metrics"),
    **dict.fromkeys((
        "EffectiveCoefficients",
        "ModelParams",
        "effective_coefficients",
    ), "params"),
}

__all__ = sorted(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

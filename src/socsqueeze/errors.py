"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A run configuration is invalid (unknown axis, bad grid, missing key...)."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge; carries diagnostic context."""

    def __init__(self, message, context=None):
        super().__init__(message)
        self.context = context or {}


class UnstableExpansionError(RuntimeError):
    """Quadratic expansion around the mean field has a non-positive normal mode."""

    def __init__(self, message, frequency=None):
        super().__init__(message)
        self.frequency = frequency


class MomentInputError(ValueError):
    """A moment set is malformed or non-finite, or a metric is undefined on it."""


class UnsupportedObservableError(ValueError):
    """An observable has no implemented representation in this backend."""

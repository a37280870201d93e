"""Shared exception types."""


class GaborflowError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(GaborflowError, ValueError):
    """Operands live in phase spaces of different dimension."""


class InvalidMatrix(GaborflowError, ValueError):
    """A matrix argument violates a structural requirement (symmetry, invertibility, ...)."""


class NumericalDegeneracy(GaborflowError, ArithmeticError):
    """A computation hit a numerically meaningless regime (near-singular inversion)."""


class ResourceLimit(GaborflowError, RuntimeError):
    """An enumeration or allocation would exceed the configured cap."""


class ResolutionError(GaborflowError, ValueError):
    """A sampled grid does not resolve the oscillation of the requested transform."""


class GridDomainError(GaborflowError, ValueError):
    """A sampled-window operation left the grid domain (shift beyond half-width)."""


class DivergenceError(GaborflowError, ArithmeticError):
    """A trajectory exceeded the overflow guard, or a flow left the float range."""


class InverseIterationError(GaborflowError, ArithmeticError):
    """Local inversion of a map failed to converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConfigError(GaborflowError, ValueError):
    """A run configuration field failed validation."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field

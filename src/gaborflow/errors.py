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


# Bytes that any one computation sized by a caller's count (lattice radius,
# points, steps, grid, trials, dimension) may allocate, checked by check_bytes
# before its arrays exist.  Read at call time, so a patch of this name reaches
# every check.
BYTE_BUDGET = 1 << 30


def check_bytes(need, what: str, remedy: str):
    """Raise ResourceLimit when `what` needs more than BYTE_BUDGET bytes.  need
    is an int or a float (inf included); `what` takes "need" when it ends in
    an s (a plural) and "needs" otherwise."""
    if need > BYTE_BUDGET:
        shown = f"{need:.0f}" if isinstance(need, float) else need
        verb = "need" if what.endswith("s") else "needs"
        raise ResourceLimit(f"{what} {verb} {shown} bytes (budget {BYTE_BUDGET}); {remedy}")


class ResolutionError(GaborflowError, ValueError):
    """A step or a grid does not resolve the quantity it samples."""


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

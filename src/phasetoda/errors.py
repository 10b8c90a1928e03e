"""Exception types shared across the package."""


class PhaseTodaError(Exception):
    """Base class for all package-specific errors."""


class DivisionByZero(PhaseTodaError, ZeroDivisionError):
    """A variable with a negative exponent was assigned the value 0."""


class NegativeExponent(PhaseTodaError):
    """Differentiation requested in a variable carrying Laurent powers."""


class NonSquare(PhaseTodaError):
    """Determinant of a non-square matrix."""


class NotDivisible(PhaseTodaError):
    """Exact polynomial division left a nonzero remainder."""


class ShapeViolation(PhaseTodaError):
    """A partition/shape containment precondition failed."""


class RangeViolation(PhaseTodaError):
    """An index is outside its documented bounds."""


class PoleViolation(PhaseTodaError):
    """Spectral parameters hit a pole of the R-matrix (u^2 == v^2)."""


class DegenerateDenominator(PhaseTodaError):
    """A tau-function denominator vanishes at the evaluation point."""


class ConfigError(PhaseTodaError):
    """Invalid CLI configuration."""

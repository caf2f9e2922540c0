"""Exception and warning types shared across the library."""


class HeatSourceError(Exception):
    """Base class for all library errors."""


class DomainError(HeatSourceError, ValueError):
    """An argument lies outside the physical or temporal domain."""


class ShapeMismatchError(HeatSourceError, ValueError):
    """Vector or table shapes are inconsistent with the problem sizes."""


class SingularSystemError(HeatSourceError, RuntimeError):
    """The unregularized normal system is rank deficient."""


class DegenerateDirectionError(HeatSourceError, RuntimeError):
    """A search direction produced a zero line-search denominator."""


class DivergenceError(HeatSourceError, RuntimeError):
    """The iteration produced a non-finite cost or gradient."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class TruncationWarning(UserWarning):
    """A series was cut at max_terms before the tail bound reached tol."""

"""Exception types shared across the package."""


class ClosedLoftError(Exception):
    """Base class for all library errors."""


class InvalidInputError(ClosedLoftError):
    """Malformed or inconsistent input data (bad knots, duplicate points, ...)."""


class DomainError(ClosedLoftError):
    """Parameter value outside the curve or surface domain."""


class SingularSystemError(ClosedLoftError):
    """A linear system was numerically singular.

    Carries an optional rank report describing the offending matrix.
    """

    def __init__(self, message, rank_report=None, condition_ok=None):
        super().__init__(message)
        self.rank_report = rank_report
        self.condition_ok = condition_ok


class PreconditionError(ClosedLoftError):
    """A documented precondition of an operation was not met."""


class ContractError(ClosedLoftError):
    """Shifted/unshifted parameter form does not match the degree parity."""

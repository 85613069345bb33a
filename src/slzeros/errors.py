"""Exception hierarchy shared by every module.

Split by who is at fault: bad input from the caller (DomainError,
UsageError, PreconditionError) versus the library failing to deliver
(NumericError, InvariantViolation).  The CLI maps the first group to
exit code 2 and the second to exit code 3.  is_integral() is the one
integer test of the argument checks that refuse by name.
"""


def is_integral(value):
    """Whether value is a number with an integer value (2000.0 is; NaN,
    an infinity and the string "3" are not)."""
    try:
        return int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


class SlzerosError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SlzerosError):
    """Mathematically invalid input: nonpositive weight, point outside
    [0, 2*pi], NaN in a coefficient function, and the like."""


class UsageError(SlzerosError):
    """Malformed invocation: unknown option, unparseable config value,
    missing required argument."""


class PreconditionError(SlzerosError):
    """A documented precondition of an operation does not hold (e.g. a
    basis too small for the requested ensemble size)."""


class NumericError(SlzerosError):
    """An iteration failed to converge or lost accuracy beyond its
    documented tolerance."""


class InvariantViolation(SlzerosError):
    """A cross-check that must hold by theory failed at runtime; the
    message carries the numbers so the failure is diagnosable."""

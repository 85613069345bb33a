"""Exception hierarchy shared by every module.

Split by who is at fault: bad input from the caller (DomainError,
UsageError, PreconditionError) versus the library failing to deliver
(NumericError, InvariantViolation).  The CLI maps the first group to
exit code 2 and the second to exit code 3.  Integer arguments are
tested two ways: non_negative_int() (2.0 refused) for seeds, replicate
ids and ExperimentConfig's counts, positive_integral() (2000.0
accepted) for orders n (check_order), k_max and the covariance draws m.
"""

import operator


def is_integral(value):
    """Whether value is a number with an integer value (2000.0 is; NaN,
    an infinity and the string "3" are not)."""
    try:
        return int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


def non_negative_int(name, value):
    """value as an int; refused by name unless a non-negative integer."""
    try:
        value = operator.index(value)
    except TypeError:
        raise PreconditionError("%s must be an integer, got %r"
                                % (name, value)) from None
    if value < 0:
        raise PreconditionError("%s must be non-negative, got %d"
                                % (name, value))
    return value


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


def positive_integral(name, value, error=PreconditionError):
    """value as an int; error, naming it, unless value is a positive
    number with an integer value (is_integral)."""
    if not is_integral(value) or value < 1:
        raise error("%s must be a positive integer, got %r" % (name, value))
    return int(value)


def check_order(n):
    """n as an int, or DomainError unless it is a positive integer."""
    return positive_integral("order n", n, DomainError)

"""Error taxonomy shared by every module.

The CLI maps DomainError / PreconditionError / ConvergenceError to exit
status 1 and ResourceLimitError to exit status 2.
"""


class KalmarError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(KalmarError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class PreconditionError(KalmarError, ValueError):
    """Arguments violate a documented precondition."""


class ConvergenceError(KalmarError, RuntimeError):
    """A solver failed to converge, or a result left its proven range."""


class ResourceLimitError(KalmarError, RuntimeError):
    """A configured capacity (sieve size, memo table, enumeration) was exceeded."""

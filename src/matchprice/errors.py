"""Exceptions shared by every module.

InputError marks malformed or out-of-contract inputs.  CapExceeded marks a
refusal: the request is well formed but larger than the configured
enumeration budget, and the message names the bound that was hit.
InvariantViolation marks a failed post-condition: a fault in the package,
not in its input.
"""


class InputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class CapExceeded(RuntimeError):
    """Raised when an exhaustive routine would exceed its work budget.

    Routines refuse rather than silently truncate; the message names the
    violated bound so callers can raise it explicitly.
    """

    def __init__(self, message: str, bound: str | None = None):
        super().__init__(message)
        self.bound = bound


class InvariantViolation(RuntimeError):
    """Raised when a solver's result fails the property it must have.

    A checked raise, not an assert, so it also holds under python -O; the
    message names the function and the invariant.
    """

"""Exceptions, and Record, the base of all twelve immutable value classes.

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


_set = object.__setattr__


class Record:
    """An immutable value whose fields are its class's __slots__: equal
    only to a record of its class with equal fields, hashed and printed
    over the fields in order, and never set after __init__.  _values keeps
    the field tuple, so == and hash build no tuple of their own."""

    __slots__ = ("_values",)

    def __init__(self, *values):
        _set(self, "_values", values)
        for name, value in zip(self.__slots__, values, strict=True):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

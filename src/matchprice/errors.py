"""Exceptions, load (the one json reader) and Record, the value base.

InputError marks malformed or out-of-contract inputs.  CapExceeded marks a
refusal: the request is well formed but larger than the configured
enumeration budget, and the message names the bound that was hit.
InvariantViolation marks a failed post-condition: a fault in the package,
not in its input.  Record is the base of all twelve immutable value classes.
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


def is_int(value) -> bool:
    """An int that is not a bool: the one test for counts and indices."""
    return isinstance(value, int) and not isinstance(value, bool)


def fields(obj, *keys):
    """The values of keys in the json object obj, or InputError naming why not."""
    if not isinstance(obj, dict):
        raise InputError(f"expected an object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise InputError(f"missing key {key!r}")
    return map(obj.__getitem__, keys)


def json_list(value, name: str) -> list:
    """value, or InputError naming the field when it is not a json list."""
    if not isinstance(value, list):
        raise InputError(f"{name} {value!r} is not a list")
    return value


def load(what: str, obj, build, *keys):
    """build(*fields(obj, *keys)); every refusal on the way reads 'bad <what> json: ...'."""
    try:
        return build(*fields(obj, *keys))
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad {what} json: {exc}") from None


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

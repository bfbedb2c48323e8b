"""Exact rational values on the wire.

Budgets and prices are fractions.Fraction throughout; the only non-rational
price is INF, the "never sold" sentinel allowed under unit-demand pricing.
Serialized form is a string: "3/4", "5", "0", or "inf".  No floats are ever
used in a buying decision.
"""

import re
import sys
from fractions import Fraction

from .errors import InputError

# The decimal forms Fraction(text) accepts: integer digits, fraction
# digits, exponent.
_DECIMAL = re.compile(r"\s*[-+]?(?=\.?\d)(\d*(?:_\d+)*)(?:\.(\d*(?:_\d+)*))?(?:[eE]([-+]?\d+(?:_\d+)*))?\s*")


class _Infinite:
    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"

    def __reduce__(self):
        # the module's global name, so copy and pickle return the singleton
        return "INF"


INF = _Infinite()

Price = Fraction | _Infinite


def is_infinite(value) -> bool:
    return value is INF


def parse_rational(text: str | int) -> Fraction:
    """Parse an exact rational; rejects "inf"."""
    if isinstance(text, bool):
        raise InputError("rational expected, got bool")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise InputError(f"rational expected as string, got {type(text).__name__}")
    if text.strip().lower() == "inf":
        raise InputError("finite rational expected, got inf")
    try:
        return _decimal(text)
    except InputError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}: {exc}") from None


def _decimal(text: str) -> Fraction:
    """Fraction(text), refused if its numerator or denominator would have
    more digits than sys.get_int_max_str_digits() lets Python print.

    Fraction builds 10**exponent for a decimal exponent, so "1e999999"
    would cost a million-digit int and fail only when printed.  The sizes
    are read off the text first, and a value is built only when it is
    within about twice the limit.  "n/d" needs no check: int() already
    refuses either part past the limit.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()
    match = _DECIMAL.fullmatch(text)
    if not limit or match is None:
        return Fraction(text)
    whole, fraction, exponent = match.groups()
    fraction = (fraction or "").replace("_", "")
    mantissa = (whole.replace("_", "") + fraction).lstrip("0")
    if not mantissa:
        return Fraction(0)
    # value = int(mantissa) * 10**shift
    shift = int(exponent.replace("_", "") if exponent else 0) - len(fraction)
    if shift >= 0:
        # an integer of exactly len(mantissa) + shift digits
        if len(mantissa) + shift > limit:
            raise _oversized(text, limit)
        return Fraction(text)
    # The denominator divides 10**-shift and exceeds 10**-shift / int(mantissa).
    if -shift - len(mantissa) >= limit:
        raise _oversized(text, limit)
    value = Fraction(text)
    if len(mantissa) - shift > limit and max(abs(value.numerator), value.denominator) >= 10**limit:
        raise _oversized(text, limit)
    return value


def _oversized(text: str, limit: int) -> InputError:
    return InputError(f"rational {text[:40]!r} needs more than {limit} digits")


def format_rational(value: Fraction | int) -> str:
    """An int or Fraction as its exact string ("3/4", "5"), refused like an
    oversized input when it has more digits than Python prints."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise InputError(f"rational result needs more than {limit} digits") from None


def format_price(value: Price) -> str:
    return "inf" if value is INF else format_rational(value)

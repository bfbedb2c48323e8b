"""Desk-scale enumeration caps.

Every exhaustive routine checks one of these bounds before doing work and
refuses when the input is larger.  Every refusal goes through require,
which raises CapExceeded naming the cap; no other module raises it.  Each
value can be overridden through an environment variable named
MATCHPRICE_<CAP_NAME>, e.g. MATCHPRICE_MAX_IS_VERTICES=28.  An override is
read when its cap is first used, so one that is not an integer raises
InputError in the caller rather than failing the import.
"""

import os
import sys

from .errors import CapExceeded, InputError

_DEFAULTS = {
    # graphs: exhaustive oracles
    "MAX_IS_VERTICES": 24,
    "MAX_IM_EDGES": 256,
    "MAX_BBIS_VERTICES": 20,
    "MAX_ALL_ORDER_VERTICES": 10,
    # matching solvers
    "MAX_EXACT_SIDE": 20,
    "MAX_BLOCK_WORK": 2_000_000,
    # csp
    "MAX_SAT_VARS": 20,
    "MAX_FGLSS_VERTICES": 512,
    # dispersers
    "MAX_VERIFY_SUBSETS": 200_000,
    "MAX_LEMMA_VERTICES": 20,
    "MAX_LEMMA_EXACT_SIDE": 8,
    # pricing oracles and enumeration
    "MAX_UDP_ITEMS": 6,
    "MAX_UDP_BUDGETS": 8,
    "MAX_SMP_GROUPS": 10,
    "MAX_SMP_ITEMS": 6,
    "MAX_GEOMETRIC_WORK": 2_000_000,
}


def __getattr__(name: str) -> int:
    """Read a cap on first use and keep it as a module attribute."""
    if name not in _DEFAULTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    raw = os.environ.get("MATCHPRICE_" + name)
    try:
        value = _DEFAULTS[name] if raw is None else int(raw)
    except ValueError:
        raise InputError(f"MATCHPRICE_{name} must be an integer, got {raw!r}") from None
    globals()[name] = value
    return value


def snapshot() -> dict:
    """All current cap values, for embedding in reports."""
    module = sys.modules[__name__]
    return {name: getattr(module, name) for name in sorted(_DEFAULTS)}


def require(name: str, used: int, message: str) -> None:
    """Refuse with CapExceeded(bound=name) when used exceeds the cap name.

    The message is formatted with used and limit.  The cap is read here, on
    each call, so an environment override or a patched module attribute
    applies.
    """
    limit = getattr(sys.modules[__name__], name)
    if used > limit:
        raise CapExceeded(message.format(used=used, limit=limit), bound=name)

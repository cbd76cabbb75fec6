"""Scalar values flowing through histories, object states and client programs.

A value is an integer, a symbol (a short printable token such as ``'c'``),
or one of three reserved constants:

* ``NULL``  -- the empty array-cell marker,
* ``EMPTY`` -- the "nothing to dequeue" return,
* ``UNIT``  -- the return of a method that returns nothing.

The reserved constants are distinct from every integer and symbol and from
each other.
"""

from __future__ import annotations

import enum
import re
from typing import Union


class Special(enum.Enum):
    NULL = "null"
    EMPTY = "EMPTY"
    UNIT = "unit"

    # members are singletons, so identity hashing agrees with equality, and
    # unlike ``Enum.__hash__`` it runs in C: object states, configurations
    # and memo keys that hold a constant are hashed without a Python call
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


NULL = Special.NULL
EMPTY = Special.EMPTY
UNIT = Special.UNIT

#: A symbol is a plain ``str``; an integer a plain ``int``.
Value = Union[int, str, Special]

#: The reserved constants by the text that names them.
SPECIALS = {s.value: s for s in Special}


def render_value(v: Value) -> str:
    """Render a value in the history-file syntax (``5``, ``'c'``, ``null``...)."""
    if isinstance(v, Special):
        return v.value
    if isinstance(v, bool):  # bool is an int subclass; forbid silently odd output
        raise TypeError(f"not a history value: {v!r}")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return f"'{v}'"
    raise TypeError(f"not a history value: {v!r}")


INT_TEXT = r"0|-?[1-9][0-9]*"  # how render_value writes an integer
_INT = re.compile(INT_TEXT)
_SYMBOL = re.compile(r"'[^'\s]+'")  # a symbol holds neither quotes nor whitespace

#: A token of a whitespace-separated line that :func:`parse_value` accepts,
#: as a regular expression without groups: a symbol, a reserved constant or
#: an integer as :func:`render_value` writes them.
VALUE_TEXT = _SYMBOL.pattern + "|" + "|".join(SPECIALS) + "|" + INT_TEXT


def parse_int(token: str) -> int:
    """Inverse of :func:`render_value` on integers; ``ValueError`` otherwise."""
    if not _INT.fullmatch(token):
        raise ValueError(f"bad integer: {token!r}")
    return int(token)


def parse_value(token: str) -> Value:
    """Inverse of :func:`render_value`.

    Accepts exactly the tokens that match :data:`VALUE_TEXT` and raises
    ``ValueError`` on anything else.
    """
    special = SPECIALS.get(token)
    if special is not None:
        return special
    if len(token) >= 3 and token[0] == token[-1] == "'":
        if _SYMBOL.fullmatch(token):
            return token[1:-1]
        raise ValueError(f"bad symbol token: {token!r}")
    if _INT.fullmatch(token):
        return int(token)
    raise ValueError(f"bad value token: {token!r}")


def value_key(v: Value) -> tuple:
    """Total order over values, used for canonical renderings and multisets."""
    if isinstance(v, Special):
        return (2, v.value)
    if isinstance(v, int):
        return (0, v)
    return (1, v)

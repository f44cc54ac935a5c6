"""Exact rational scalars and their canonical string form.

All arithmetic in this package runs on ``fractions.Fraction``: arbitrary
precision, automatically reduced, canonical positive denominator.  The
alias ``Rational`` names that choice once.  Every serialized number uses
the string form ``"p"`` or ``"p/q"`` with integer ``p`` and ``q > 0``;
floats never appear in any interchange format.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import InputFormatError

Rational = Fraction


# "p" or "p/q" in one match: group 1 is p, group 2 is q or None.
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)\s*(?:/\s*([+-]?[0-9]+)\s*)?")
_ECHO_LIMIT = 40


def _echo(text: str) -> str:
    """The text quoted for an error message, cut to a prefix if long."""
    if len(text) <= _ECHO_LIMIT:
        return repr(text)
    return f"{text[:_ECHO_LIMIT]!r}... ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into a Fraction.

    ``p`` and ``q`` are ASCII decimal integers with an optional sign;
    whitespace around the text or around the slash is ignored.  Rejects
    anything that is not such an integer pair, including q <= 0, decimal
    points, empty parts, digit separators (``"1_000"``) and non-ASCII
    digits, which ``int`` alone would accept.
    """
    if not isinstance(text, str):
        raise InputFormatError(
            f"rational must be a string, got {type(text).__name__}"
        )
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise InputFormatError(f"invalid rational {_echo(text)}")
    num_text, den_text = match.groups()
    try:
        num = int(num_text)
        den = None if den_text is None else int(den_text)
    except ValueError:  # only reachable past int's limit on decimal digits
        raise InputFormatError(
            f"invalid rational {_echo(text)}: an integer exceeds the"
            f" interpreter's limit of {sys.get_int_max_str_digits()} digits"
        ) from None
    if den is None:
        return Fraction(num)
    if den <= 0:
        raise InputFormatError(
            f"invalid rational {_echo(text)}: denominator must be positive"
        )
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"``. Inverse of parse_rational."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def as_rational(value: int | Fraction, what: str) -> Fraction:
    """Coerce an int or Fraction; reject bools, floats and all else, naming ``what``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise InputFormatError(
        f"{what} must be an int or a Fraction, got {type(value).__name__}"
    )


def as_int(value: int, what: str) -> int:
    """The value if it is an int; reject bools and all else, naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"{what} must be an int, got {type(value).__name__}")
    return value


def as_list(value, what: str) -> list:
    """The items of an iterable as a new list; reject all else, naming ``what``."""
    try:
        items = iter(value)
    except TypeError:
        raise InputFormatError(
            f"{what} must be iterable, got {type(value).__name__}"
        ) from None
    return list(items)

"""Located checks for values read from JSON documents.

Weight graphs, calibrations and QAOA parameter files all parse through these
helpers, so a malformed, non-integer or non-finite value raises
:class:`ParseError` naming the field it came from.
"""

from __future__ import annotations

import json
import math

from .errors import ParseError


def json_object(text: str) -> dict:
    """Decode JSON text whose top level must be an object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"line {exc.lineno}, col {exc.colno}") from exc
    except (ValueError, RecursionError) as exc:
        # An integer literal past Python's digit limit, or nesting past the recursion limit.
        raise ParseError(str(exc), "$") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object", "$")
    return doc


def only_fields(obj: dict, keys, where: str) -> None:
    for k in obj:
        if k not in keys:
            raise ParseError(f"unknown field {k!r}", where)


def required(obj: dict, key: str, where: str):
    if key not in obj:
        raise ParseError(f"missing field {key!r}", where)
    return obj[key]


def real(value, where: str) -> float:
    """A finite JSON number; NaN, +/-Infinity and overflowing literals fail."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"expected a real number, got {value!r}", where)
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ParseError(f"expected a finite number, got {value!r}", where)
    return x


def integer(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"expected an integer, got {value!r}", where)
    return value

"""Located checks for values read from JSON documents.

Weight graphs, calibrations and QAOA parameter files all parse through these
helpers, so a malformed, non-integer or non-finite value raises
:class:`ParseError` naming the field it came from.  :func:`as_index` is the
package's one rule for a non-negative index.  :func:`records` is the
one walk over a list of JSON objects, the rows of graph ``nodes`` and
``edges`` and of calibration ``qubits`` and ``couplers``.
"""

from __future__ import annotations

import json
import operator
import sys

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


def records(value, key: str, fields: dict, closed: bool = False, nonempty: bool = False) -> list:
    """The list ``value`` found at ``key``, read as one tuple per entry.

    Each entry must be an object holding every field in ``fields`` (name ->
    reader); the tuple holds ``reader(entry[name], "key[k].name")`` in
    ``fields`` order.  A ``closed`` entry may hold no other field, and a
    ``nonempty`` list needs an entry.  The first fault raises
    :class:`ParseError`: the list, then entry by entry, its unknown fields
    before its missing or bad ones.
    """
    if not isinstance(value, list) or (nonempty and not value):
        raise ParseError(f"{key} must be a {'non-empty ' if nonempty else ''}list", key)
    rows = []
    for k, entry in enumerate(value):
        where = f"{key}[{k}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{key[:-1]} entry must be an object", where)
        if closed:
            only_fields(entry, fields, where)
        rows.append(tuple(read(required(entry, name, where), f"{where}.{name}")
                          for name, read in fields.items()))
    return rows


_FLOAT_MAX = sys.float_info.max
_FLOAT_MIN = -_FLOAT_MAX


def is_integer(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A finite JSON number: a float or :func:`is_integer` value within the
    float range; NaN, +/-Infinity and integers past the range fail.  Floats
    are tested first: the task store checks two per record on every read."""
    return (isinstance(value, float) or is_integer(value)) and _FLOAT_MIN <= value <= _FLOAT_MAX


def real(value, where: str) -> float:
    """A finite JSON number; NaN, +/-Infinity and overflowing literals fail."""
    if is_real(value):
        return float(value)
    if not (isinstance(value, float) or is_integer(value)):
        raise ParseError(f"expected a real number, got {value!r}", where)
    raise ParseError(f"expected a finite number, got {value!r}", where)


def as_index(x, limit=None) -> int | None:
    """``x`` as an int in ``[0, limit)``, or None when it is not one.

    The one rule for a non-negative index (a qubit, a wire, a node id or
    label, a set element): NumPy ints count and bools do not; without
    ``limit`` any non-negative int counts.
    """
    if isinstance(x, bool):
        return None
    try:
        q = operator.index(x)
    except TypeError:
        return None
    return q if q >= 0 and (limit is None or q < limit) else None


def integer(value, where: str) -> int:
    if not is_integer(value):
        raise ParseError(f"expected an integer, got {value!r}", where)
    return value

"""The JSON text the program writes, produced by CPython's C encoder.

``json.dumps`` runs its C encoder only when ``indent`` is None, so an
indented dump goes through the pure-Python ``_iterencode`` generators, and
a call with non-default arguments builds a new ``JSONEncoder`` each time.
The two writers here give the same text as those calls, byte for byte:

* :func:`dumps_indented` is ``json.dumps(obj, indent=2, sort_keys=True)``;
* :func:`dumps_compact` is ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``.

An indented container whose members are all scalars is written by one C
call whose item separator carries the newline and indent of its depth; so
is a list of such non-empty objects. Only the containers above them are
walked in Python. The C encoder escapes every control character inside a
string, so a raw newline in its output is always a separator.

A :class:`Prewritten` value is not JSON data: :func:`dumps_indented`
writes the text it returns for the depth at which it is met. It lets a
caller that can write a large block faster than the walk (the ledger's
rows, in :meth:`~allocsim.accounting.CostLedger.artifacts`) hand over
that text in its place.

A value ``json.dumps`` cannot write raises the same exception type here,
except a container that holds itself: that raises ``RecursionError``
where ``json.dumps`` raises ``ValueError``.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Callable


class Prewritten:
    """A value written as ``write(depth)``: the indented text of the value it stands for at that depth."""

    __slots__ = ("write",)

    def __init__(self, write: Callable[[int], str]) -> None:
        self.write = write


dumps_compact: Callable[[Any], str] = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# exact types the C encoder writes as JSON scalars; a subclass of one of
# them, or of a container, is looked at by the Python walk
_SCALARS = frozenset({str, int, float, bool, type(None)})
_DICT = frozenset({dict})


@cache
def _level(depth: int) -> tuple[str, str, Callable[[Any], str]]:
    """For a container at ``depth``: the break before each member, the
    break before its closing bracket, and the C writer of its members."""
    inner = "\n" + "  " * (depth + 1)
    encode = json.JSONEncoder(sort_keys=True, separators=("," + inner, ": ")).encode
    return inner, "\n" + "  " * depth, encode


def dumps_indented(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte."""
    return _indented(obj, 0)


def _indented(obj: Any, depth: int) -> str:
    inner, outer, encode = _level(depth)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if _SCALARS.issuperset(map(type, obj.values())):
            return "{" + inner + encode(obj)[1:-1] + outer + "}"
        members = [_key(k) + ": " + _indented(v, depth + 1) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(members) + outer + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if _SCALARS.issuperset(map(type, obj)):
            return "[" + inner + encode(obj)[1:-1] + outer + "]"
        if (_DICT.issuperset(map(type, obj)) and all(obj)
                and _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, obj))))):
            # one call writes every object's members at depth + 2; a "}"
            # before a separator can only close an object, as no member is a
            # container and no string holds a raw newline
            deeper, _, encode_objects = _level(depth + 1)
            body = encode_objects(obj)[2:-2].replace(
                "}," + deeper + "{", inner + "}," + inner + "{" + deeper
            )
            return "[" + inner + "{" + deeper + body + inner + "}" + outer + "]"
        items = [_indented(v, depth + 1) for v in obj]
        return "[" + inner + ("," + inner).join(items) + outer + "]"
    if type(obj) is Prewritten:
        return obj.write(depth)
    return encode(obj)


def _key(key: Any) -> str:
    """A member name as ``json`` writes it."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:  # a bool is an int
        return '"' + dumps_compact(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")

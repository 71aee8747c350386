"""The one writer of indented JSON: ``--json`` output, ``construct --out`` and the fixture files.

The output format is an interface: two-space indent, non-ASCII as ``\\u``
escapes, and keys sorted where the caller asks (``--json``) or kept in
insertion order (graph files, ``vertices``, ``edges``, ``relation``).
:func:`json_text` gives exactly the text of ``json.dumps(value, indent=2,
sort_keys=...)``, which drops to json's pure-Python encoder whenever
``indent`` is set.  It is one recursive walk over dicts, lists and tuples
that escapes strings with json's C escaper and appends one piece per item.
The recursion follows the nesting of the value, a few levels for every
payload the package writes, not its size.

``alexander`` prints rows of one shape, 2^k of them under ``--all`` and
one under ``--subset``, so :func:`alexander_rows` writes both from one
template instead: the text ``json_text`` gives for the list of row dicts
with sorted keys, from names escaped once each by :func:`quote`.  It
returns a :class:`JsonText`, which ``json_text`` returns as is.
"""

from __future__ import annotations

import json
# a string as a JSON string literal, non-ASCII escaped: json's C escaper when built
from json.encoder import encode_basestring_ascii as quote

__all__ = ["JsonText", "alexander_rows", "json_text", "quote"]


class JsonText(str):
    """Text that is already indented JSON; :func:`json_text` returns it unchanged."""


def json_text(value, sort_keys: bool = False) -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=sort_keys)``, or its exception.

    A leaf other than a string, an exact int, a bool or None goes to
    ``json.dumps(leaf)``, which prints floats and int or float subclasses
    as json does and raises json's own TypeError for anything it cannot
    encode; a cycle raises json's ValueError.  A :class:`JsonText` given
    as ``value`` is returned as it is; inside a list or dict it is a
    string like any other.
    """
    if type(value) is JsonText:
        return value
    out: list = []
    _walk(value, "", "\n", sort_keys, out, set())
    return "".join(out)


def _leaf(value) -> str:
    if isinstance(value, str):
        return quote(value)
    if type(value) is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value)


def _key(key) -> str:
    """A dict key as json.dumps prints it: a string, or a str/int/float/bool/None key quoted."""
    if isinstance(key, str):
        return quote(key)
    if key is None or isinstance(key, (int, float)):
        return quote(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _walk(value, head: str, indent: str, sort_keys: bool, out: list, open_ids: set) -> None:
    """Append ``head`` and value's text to ``out``; ``indent`` starts value's own lines.

    ``open_ids`` holds the containers being written, as json's markers do.
    """
    if isinstance(value, (list, tuple)):
        brackets, items = "[]", None
    elif isinstance(value, dict):
        brackets = "{}"
        items = sorted(value.items()) if sort_keys else value.items()
    else:
        out.append(head + _leaf(value))
        return
    if not value:
        out.append(head + brackets)
        return
    if id(value) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(value))
    inner = indent + "  "
    comma = "," + inner
    out.append(head + brackets[0])
    sep = inner
    if items is None:
        for item in value:
            if type(item) is str:
                out.append(sep + quote(item))
            elif isinstance(item, (list, tuple, dict)):
                _walk(item, sep, inner, sort_keys, out, open_ids)
            else:
                out.append(sep + _leaf(item))
            sep = comma
    else:
        for key, item in items:
            key = sep + _key(key) + ": "
            if type(item) is str:
                out.append(key + quote(item))
            elif isinstance(item, (list, tuple, dict)):
                _walk(item, key, inner, sort_keys, out, open_ids)
            else:
                out.append(key + _leaf(item))
            sep = comma
    out.append(indent + brackets[1])
    open_ids.discard(id(value))


# a row of json_text(rows, sort_keys=True), rows a list of {"equal", "lhs",
# "rhs", "subset"} dicts: its indent and its keys in sorted order, with the
# quoted names of a nonempty subset joined by _NEXT_NAME
_ROW = '{\n    "equal": %s,\n    "lhs": %d,\n    "rhs": %d,\n    "subset": [\n      %s\n    ]\n  }'
_EMPTY_ROW = '{\n    "equal": %s,\n    "lhs": %d,\n    "rhs": %d,\n    "subset": []\n  }'
_NEXT_NAME = ",\n      "
_EQUAL = ("false", "true")


def alexander_rows(splits) -> JsonText:
    """``json_text(rows, sort_keys=True)`` for the rows of ``alexander``, one template each.

    ``splits`` yields (names, lhs, rhs) with the names of S already quoted
    by :func:`quote` and lhs and rhs exact ints; the row of each split is
    ``{"subset": [...names], "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}``.
    """
    join = _NEXT_NAME.join
    rows = [
        _ROW % (_EQUAL[lhs == rhs], lhs, rhs, join(names)) if names else _EMPTY_ROW % (_EQUAL[lhs == rhs], lhs, rhs)
        for names, lhs, rhs in splits
    ]
    return JsonText("[\n  " + ",\n  ".join(rows) + "\n]" if rows else "[]")

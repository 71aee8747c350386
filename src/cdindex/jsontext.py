"""The writer of indented JSON: ``--json`` output, ``construct --out`` and the fixture files.

The output format is an interface: two-space indent, non-ASCII as ``\\u``
escapes, and keys sorted where the caller asks (``--json``) or kept in
insertion order (graph files, ``vertices``, ``edges``, ``relation``).
:func:`json_text` gives exactly the text of ``json.dumps(value, indent=2,
sort_keys=...)``, which drops to json's pure-Python encoder whenever
``indent`` is set.  It is one recursive walk over dicts, lists and tuples
that escapes strings with json's C escaper and appends one piece per item.
The recursion follows the nesting of the value, a few levels for every
payload the package writes, not its size.  ``alexander``'s rows, 2^k
of them under ``--all``, are the one JSON it does not write: ``cli``
prints them row by row, in the text :func:`json_text` would give.
"""

from __future__ import annotations

import json
# a string as a JSON string literal, non-ASCII escaped: json's C escaper when built
from json.encoder import encode_basestring_ascii as quote

__all__ = ["json_text", "quote"]


def json_text(value, sort_keys: bool = False) -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=sort_keys)``, or its exception.

    A leaf other than a string, an exact int, a bool or None goes to
    ``json.dumps(leaf)``, which prints floats and int or float subclasses
    as json does and raises json's own TypeError for anything it cannot
    encode; a cycle raises json's ValueError.
    """
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


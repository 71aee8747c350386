"""json_text against json.dumps(indent=2): the same bytes, or the same error."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdindex.jsontext import json_text

_leaves = (
    st.text()  # non-ASCII, astral, control, quote and backslash characters included
    | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "é \U0001f600"])
    | st.integers()
    | st.sampled_from([10**40, -(10**40), 0, -1])
    | st.booleans()
    | st.none()
    | st.floats()
)
_keys = st.text(max_size=4) | st.integers() | st.booleans() | st.none() | st.floats()
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


def _outcome(encode):
    try:
        return encode()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(value=_values, sort_keys=st.booleans())
def test_same_bytes_as_json_dumps(value, sort_keys):
    assert json_text(value, sort_keys) == json.dumps(value, indent=2, sort_keys=sort_keys)


@settings(max_examples=100, deadline=None)
@given(value=st.dictionaries(_keys, _leaves, max_size=4), sort_keys=st.booleans())
def test_non_string_keys_as_json_dumps(value, sort_keys):
    # mixed key types make sorted() raise TypeError, in both
    assert _outcome(lambda: json_text(value, sort_keys)) == _outcome(
        lambda: json.dumps(value, indent=2, sort_keys=sort_keys)
    )


def _cycle():
    loop = {"a": []}
    loop["a"].append(loop)
    return loop


@pytest.mark.parametrize(
    "value",
    [{1}, [object()], {"a": [1, {"b": frozenset()}]}, {(1, 2): 0}, _cycle()],
    ids=["set", "object", "nested", "tuple-key", "cycle"],
)
@pytest.mark.parametrize("sort_keys", [False, True])
def test_same_error_as_json_dumps(value, sort_keys):
    want = _outcome(lambda: json.dumps(value, indent=2, sort_keys=sort_keys))
    assert isinstance(want, tuple)
    assert _outcome(lambda: json_text(value, sort_keys)) == want


def test_shared_subtree_is_no_cycle():
    shared = {"x": [1]}
    value = [shared, shared, {"again": shared}]
    assert json_text(value) == json.dumps(value, indent=2)


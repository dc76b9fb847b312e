"""The report writer against json.dumps over the rendering it replaced."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilab.cli import _dump

_REAL_FORMAT = ".17g"


def oracle(obj):
    """Rationals as num/den, reals as .17g decimal strings, tuples as lists."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        return format(obj, _REAL_FORMAT)
    if isinstance(obj, dict):
        return {k: oracle(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle(v) for v in obj]
    return obj


def reference(obj) -> str:
    return json.dumps(oracle(obj), indent=2, sort_keys=True) + "\n"


texts = st.text(st.characters(codec="utf-8"), max_size=12) | st.sampled_from(
    ["", "\x00\x1f\x7f", 'quote " and \\ backslash', "tab\tnew\nline", "snow ☃", "\U0001f600"])
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-310, 5e-324, 1.7976931348623157e308])
    | st.fractions()
    | texts
)
values = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(texts, inner, max_size=5)
        | st.dictionaries(st.integers(), inner, max_size=5)
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(values)
def test_writer_matches_json_dumps(obj):
    assert _dump(obj) == reference(obj)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(texts, st.integers(), max_size=20))
def test_counts_table_matches_json_dumps(table):
    payload = {"blocks": {"1": {"counts": table, "dof": 9}}}
    assert _dump(payload) == reference(payload)


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}}, {"a": []}, [[], {}, ()], {"a": [1, [2, {"b": ()}]]},
    {10: "ten", 9: "nine", -1: None}, {True: 1}, {None: 0}, {1.5: "x"},
    {"k": Fraction(-22, 7), "r": -0.0, "i": 10**400, "b": [True, False, None]},
    {"é": {"\x1b": " "}},
])
def test_writer_edge_cases(obj):
    assert _dump(obj) == reference(obj)


@pytest.mark.parametrize("obj", [{"a": object()}, {(1, 2): 3}, {"a": {1, 2}}])
def test_writer_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        _dump(obj)

"""The report writer against its oracle: ``report_to_json(v)`` must be
``json.dumps(v, indent=2) + "\\n"`` for every value ``json.dumps`` accepts
whose dict keys are all str, and raise the same ``TypeError`` for any other
value.  A key that is not a str, which ``json.dumps`` would coerce, is a
``TypeError`` of its own."""
import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bornbundle.cli import report_to_json


def oracle(value) -> str:
    return json.dumps(value, indent=2) + "\n"


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2e-308,
                  1e-310, 1.7976931348623157e308, 1e16, 1e-5, 0.1]
SPECIAL_TEXT = ['', '"', '\\', '"quoted" \\ back', '\x00\x01\x1f\x7f', '\n\r\t\b\f',
                'é ü ß', 'ωΓ∇', '\U0001d70e', '\ud800', 'nan', 'Infinity']

class Level(enum.IntEnum):  # int, float and str subclasses with their own repr
    LOW = 1


class Ratio(float):
    def __repr__(self):
        return "Ratio()"


class Name(str):
    def __repr__(self):
        return "Name()"


floats = (st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
          | st.sampled_from(SPECIAL_FLOATS))
scalars = (st.none() | st.booleans()
           | st.integers() | st.integers(min_value=-10**300, max_value=10**300)
           | floats | floats.map(np.float64)
           | st.text() | st.sampled_from(SPECIAL_TEXT))
keys = st.text() | st.sampled_from(SPECIAL_TEXT)
values = st.recursive(
    scalars,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.lists(floats) | st.lists(floats).map(tuple)
                      | st.dictionaries(keys, children)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(values)
def test_writer_equals_the_stdlib_layout(value):
    assert report_to_json(value) == oracle(value)


@pytest.mark.parametrize("value", [
    [], (), {}, [[]], {"a": {}}, [{}, [], ()], {"": []},
    [True, 1, False, 0, 2**100, -(10**40)],
    [1.0, 2, 3.0],             # a float list broken by an int
    [1.0, True],               # ... and by a bool
    [1.0, np.float64(-0.0), math.nan, math.inf, -math.inf],
    {"k": (1.0, (2.0, [3.0]))},
    "top-level string", 7, -0.0, math.nan, None, True,
    [Level.LOW, Ratio(0.5), Name("n")], [Ratio(1.5), Ratio("nan")],
    {"level": Level.LOW, "ratio": Ratio(-0.0), Name("k"): Name("v")},
], ids=repr)
def test_writer_edge_cases(value):
    assert report_to_json(value) == oracle(value)


@pytest.mark.parametrize("value", [
    np.bool_(True), np.int64(3), np.zeros(2), {1, 2},
    [np.int64(3)], [1.0, np.int64(3)], [1.0, np.bool_(False)],
    {"a": np.zeros((2, 2))}, {"a": [1.0, {"b": {3}}]},
], ids=repr)
def test_writer_rejects_what_json_rejects(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        report_to_json(value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value", [
    # the keys json.dumps coerces, in one value and one key at a time
    [{1: "a", 1.5: "b", None: "e", math.nan: "g", math.inf: "h", 2**70: "i"},
     {True: "c"}, {False: "d"}, {-0.0: "f"}, {-math.inf: 1.0}],
    {1: "a"}, {1.5: "b"}, {None: "e"}, {math.nan: "g"}, {math.inf: "h"}, {2**70: "i"},
    {True: "c"}, {False: "d"}, {-0.0: "f"}, {-math.inf: 1.0},
    {Level.LOW: Level.LOW, Ratio(2.5): Ratio(-0.0), Name("k"): Name("v")},
    {Ratio(2.5): Ratio(-0.0)}, {"a": 1.0, 2: 1.0},
    {(1, 2): 1.0}, {"a": {frozenset(): 1}},
], ids=repr)
def test_writer_rejects_a_key_that_is_not_a_str(value):
    # no document the CLI writes has such a key
    with pytest.raises(TypeError, match=r"^keys must be str, not \w+$"):
        report_to_json(value)

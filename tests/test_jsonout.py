"""The JSON writers give ``json.dumps``'s text, byte for byte.

``json.dumps`` with the same arguments is the oracle: on any value the
writer returns the oracle's text, or raises the oracle's exception type.
"""

from __future__ import annotations

import enum
import json
import math
from collections import Counter, OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from allocsim.jsonout import dumps_compact, dumps_indented


def indented_oracle(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def compact_oracle(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def outcome(write, obj):
    """The text ``write`` gives for ``obj``, or the type of the exception it raises."""
    try:
        return write(obj)
    except (TypeError, ValueError, RecursionError) as exc:
        return type(exc)


# characters the writers' separators and escapes are made of, plus non-ASCII
TEXT = st.text(st.one_of(st.sampled_from('{}[],:"\\\n\t /e'), st.characters()), max_size=12)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),  # NaN, ±inf and -0.0 included
    TEXT,
)
KEYS = st.one_of(TEXT, st.integers(), st.floats(), st.booleans(), st.none())
FLAT_OBJECT = st.dictionaries(TEXT, SCALARS, max_size=5)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
        st.lists(FLAT_OBJECT, max_size=4),
    ),
    max_leaves=30,
)


class Level(enum.IntEnum):
    LOW = 1


class Kind(str, enum.Enum):
    GOTO = "goto"


ODD_VALUES = [
    pytest.param([[[]], {"a": {"b": {}}}, [{}], [[{}]], ()], id="empty-containers-at-every-depth"),
    pytest.param([{"a": 1}, {}, {"b": [2]}], id="objects-with-an-empty-one"),
    pytest.param([{"a": 1}, {}], id="flat-objects-ending-in-an-empty-one"),
    pytest.param([{"x}": "},"}, {"{": "{\"\n"}], id="brackets-inside-strings"),
    pytest.param({"deep": [[1, [2, [3, {"k": (4, 5)}]]]]}, id="nested-tuples"),
    pytest.param([math.inf, -math.inf, math.nan, -0.0, 10**40, -(10**40), True, None], id="odd-numbers"),
    pytest.param({"counter": Counter(a=2, b=1), "ordered": OrderedDict(z=1, a=[])}, id="dict-subclasses"),
    pytest.param([Counter(a=1), Counter(b=2)], id="list-of-counters"),
    pytest.param({"enum": Level.LOW, "kind": Kind.GOTO, "np": np.float64(0.1)}, id="scalar-subclasses"),
    pytest.param({Level.LOW: [1], 2.5: [2], True: [3], None: [4]}, id="non-string-keys-walked"),
    pytest.param({Level.LOW: 1, 2.5: 2, True: 3, None: 4}, id="non-string-keys-flat"),
    pytest.param({math.nan: 1, -math.inf: {"a": 1}}, id="nan-and-inf-keys"),
    pytest.param({1: "a", "b": [2]}, id="int-and-str-keys"),
    pytest.param({(1, 2): [3]}, id="tuple-key"),
    pytest.param({"a": [Fraction(1, 3)]}, id="fraction-value"),
    pytest.param([{1, 2}], id="set-value"),
    pytest.param([{"a": np.int64(3)}], id="numpy-int-value"),
    pytest.param("just a stringé", id="top-level-string"),
    pytest.param(7, id="top-level-int"),
]


class TestIndented:
    @given(VALUES)
    @settings(max_examples=150, deadline=None)
    @example([{"a": 1}, {}, {"b": "x"}])
    @example([{"a": "}"}, {"b": 1}])
    def test_equals_json_dumps(self, obj):
        assert outcome(dumps_indented, obj) == outcome(indented_oracle, obj)

    @given(st.lists(FLAT_OBJECT, min_size=1, max_size=6), st.integers(min_value=0, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_flat_objects_at_any_depth(self, objects, depth):
        obj = objects
        for _ in range(depth):
            obj = {"nest": [obj, 1]}
        assert dumps_indented(obj) == indented_oracle(obj)

    @given(st.dictionaries(KEYS, st.one_of(SCALARS, st.lists(SCALARS, max_size=2)), max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_non_string_keys_match_or_raise_type_error(self, obj):
        expected = outcome(indented_oracle, obj)
        assert expected is TypeError or isinstance(expected, str)
        assert outcome(dumps_indented, obj) == expected

    @pytest.mark.parametrize("obj", ODD_VALUES)
    def test_odd_values(self, obj):
        assert outcome(dumps_indented, obj) == outcome(indented_oracle, obj)


class TestCompact:
    @given(VALUES)
    @settings(max_examples=60, deadline=None)
    def test_equals_json_dumps(self, obj):
        assert outcome(dumps_compact, obj) == outcome(compact_oracle, obj)

    @given(st.dictionaries(KEYS, SCALARS, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_non_string_keys(self, obj):
        assert outcome(dumps_compact, obj) == outcome(compact_oracle, obj)

    @pytest.mark.parametrize("obj", ODD_VALUES)
    def test_odd_values(self, obj):
        assert outcome(dumps_compact, obj) == outcome(compact_oracle, obj)

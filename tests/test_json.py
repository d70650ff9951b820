"""The indented writer of ``_json.dumps`` prints json's bytes."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertia_lab._json import dumps

FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1.7e308, -1.7976931348623157e308, 0.1]
)
TEXT = st.text() | st.sampled_from(["", "é", "\x00\x1f\x7f", '"\\/', " ", "\U0001f600", "\ud800"])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**300)
    | FLOATS
    | TEXT
)
# float rows as the reports hold them: Python floats, or numpy's float subclass
ROWS = st.lists(FLOATS) | st.lists(FLOATS).map(lambda xs: [np.float64(x) for x in xs])
VALUES = st.recursive(
    SCALARS | ROWS,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(TEXT, kids, max_size=4),
    max_leaves=25,
)


def _reference(obj, indent: int) -> str:
    return json.dumps(obj, indent=indent, separators=(",", ": "), allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(VALUES, st.integers(min_value=0, max_value=4))
def test_indented_text_is_the_bytes_of_json_dumps(obj, indent):
    assert dumps(obj, indent=indent) == _reference(obj, indent)


@settings(max_examples=30, deadline=None)
@given(VALUES)
def test_compact_text_is_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, separators=(",", ":"), allow_nan=False)


@pytest.mark.parametrize(
    "obj",
    [math.nan, [math.inf], [1.0, -math.inf], (2.0, math.nan), {"a": [[1, math.nan]]}, {"b": math.inf}],
)
def test_non_finite_floats_raise_value_error(obj):
    with pytest.raises(ValueError):
        dumps(obj, indent=2)
    with pytest.raises(ValueError):
        dumps(obj)


@pytest.mark.parametrize("obj", [{1, 2}, [b"bytes"], {"a": np.int64(3)}, {"a": [object()]}, {1: 2}])
def test_unsupported_types_raise_type_error(obj):
    with pytest.raises(TypeError):
        dumps(obj, indent=2)

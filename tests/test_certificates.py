import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contraction_lab.certificates import dumps_fixed

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_round_trips_through_json(value):
    assert json.loads(dumps_fixed(value)) == value


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"), [1.0, math.inf], {"m": -math.inf}])
def test_rejects_non_finite_floats(bad):
    with pytest.raises(ValueError):
        dumps_fixed(bad)


def test_escapes_control_characters():
    text = 'tab\there "quoted" back\\slash\r\n\x00\x1f\x7f é'
    out = dumps_fixed(text)
    assert not any(ord(ch) < 0x20 for ch in out)
    assert json.loads(out) == text

"""Property test of the fixture registry: a numeric parameter of any size
either builds its fixture or is refused with a ``ValueError``, never with an
overflow or any other error."""
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbsde.generators import _REGISTRY, fixture, fixture_names

_NUMERIC = [
    (name, key, param.annotation)
    for name in fixture_names()
    for key, param in inspect.signature(_REGISTRY[name], eval_str=True).parameters.items()
    if param.annotation in (int, float)
]

_VALUES = {
    int: st.integers(-10, 10**400),
    float: st.one_of(st.floats(-1e308, 1e308), st.integers(-(10**400), 10**400)),
}


def test_every_fixture_has_a_numeric_parameter_to_vary():
    assert {name for name, _, _ in _NUMERIC} == set(fixture_names())


@pytest.mark.parametrize("name, key, kind", _NUMERIC, ids=[f"{name}-{key}" for name, key, _ in _NUMERIC])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_numeric_parameter_builds_its_fixture_or_is_refused(name, key, kind, data):
    value = data.draw(st.one_of(_VALUES[kind], st.sampled_from([10**400, 10**160, 1e308, -1e308])))
    try:
        bundle = fixture(name, **{key: value})
    except ValueError:
        return
    assert bundle.params[key] == value

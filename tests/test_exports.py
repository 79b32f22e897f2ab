"""The package namespace: each public name exported once, and no tuning
knob left on the public functions."""

import inspect

import pytest

import bscbounds


def test_every_export_is_listed_once_and_resolves():
    names = bscbounds.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(bscbounds, name), name


@pytest.mark.parametrize("knob", ["cap", "tol", "per_component"])
def test_no_public_function_takes_a_tuning_knob(knob):
    funcs = [(name, obj) for name in bscbounds.__all__
             if inspect.isfunction(obj := getattr(bscbounds, name))]
    assert funcs
    assert [name for name, fn in funcs if knob in inspect.signature(fn).parameters] == []
